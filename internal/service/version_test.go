package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// TestConcurrentPutSingleWinner is the lost-update regression test: N
// writers read version 1 and race PutIfMatch(expect=1). Exactly one may
// win; every other writer must be told its read went stale — before
// conditional writes existed, all N "succeeded" and N-1 updates were
// silently destroyed.
func TestConcurrentPutSingleWinner(t *testing.T) {
	reg := NewRegistry()
	plat := testPlatform(4)
	if err := reg.Put("lyon", plat); err != nil {
		t.Fatal(err)
	}

	const writers = 16
	expect := uint64(1)
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		wins      int
		stale     int
		otherErrs []error
	)
	start := make(chan struct{})
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			_, err := reg.PutIfMatch("lyon", testPlatform(5), &expect)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				wins++
			case errors.Is(err, ErrVersionMismatch):
				stale++
			default:
				otherErrs = append(otherErrs, err)
			}
		}()
	}
	close(start)
	wg.Wait()

	if len(otherErrs) > 0 {
		t.Fatalf("unexpected errors: %v", otherErrs)
	}
	if wins != 1 || stale != writers-1 {
		t.Fatalf("wins=%d stale=%d, want 1 winner and %d stale writers", wins, stale, writers-1)
	}
	if _, v, ok := reg.GetVersion("lyon"); !ok || v != 2 {
		t.Fatalf("final version = %d (ok=%v), want 2", v, ok)
	}
}

// TestPutIfMatchSemantics pins the expect contract: nil always writes, 0
// means must-not-exist, MatchAny means must-exist, and versions never
// rewind across delete/re-create.
func TestPutIfMatchSemantics(t *testing.T) {
	reg := NewRegistry()
	plat := testPlatform(4)

	zero := uint64(0)
	if _, err := reg.PutIfMatch("p", plat, &zero); err != nil {
		t.Fatalf("create with expect=0: %v", err)
	}
	if _, err := reg.PutIfMatch("p", plat, &zero); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("re-create with expect=0: err=%v, want ErrVersionMismatch", err)
	}
	any := MatchAny
	if v, err := reg.PutIfMatch("p", plat, &any); err != nil || v != 2 {
		t.Fatalf("If-Match:* update: v=%d err=%v, want 2,nil", v, err)
	}
	if _, err := reg.PutIfMatch("absent", plat, &any); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("If-Match:* on absent: err=%v, want ErrVersionMismatch", err)
	}

	tomb, existed, err := reg.DeleteIfMatch("p", nil)
	if err != nil || !existed || tomb != 3 {
		t.Fatalf("delete: tomb=%d existed=%v err=%v, want 3,true,nil", tomb, existed, err)
	}
	// Re-creation resumes above the tombstone: replicas ordering by
	// version must see the re-created entry as newer than the delete.
	if v, err := reg.PutIfMatch("p", plat, &zero); err != nil || v != 4 {
		t.Fatalf("re-create after delete: v=%d err=%v, want 4,nil", v, err)
	}

	stale := uint64(1)
	if _, _, err := reg.DeleteIfMatch("p", &stale); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("stale delete: err=%v, want ErrVersionMismatch", err)
	}
}

// TestApplyRemoteOrdering pins the replication contract: strictly-newer
// versions apply; stale, duplicate, and out-of-order deliveries are
// dropped without error; tombstones shadow older puts.
func TestApplyRemoteOrdering(t *testing.T) {
	reg := NewRegistry()
	plat := testPlatform(4)

	if applied, err := reg.ApplyRemote(RegistryUpdate{Name: "p", Version: 3, Platform: plat}); err != nil || !applied {
		t.Fatalf("fresh update: applied=%v err=%v", applied, err)
	}
	// Duplicate redelivery (webhook retry) is a no-op.
	if applied, _ := reg.ApplyRemote(RegistryUpdate{Name: "p", Version: 3, Platform: plat}); applied {
		t.Fatal("duplicate delivery applied twice")
	}
	// An older concurrent write arriving late is dropped.
	if applied, _ := reg.ApplyRemote(RegistryUpdate{Name: "p", Version: 2, Platform: testPlatform(5)}); applied {
		t.Fatal("stale delivery applied")
	}
	if _, v, ok := reg.GetVersion("p"); !ok || v != 3 {
		t.Fatalf("version = %d (ok=%v), want 3", v, ok)
	}
	// A newer tombstone deletes; the put it raced (version 4 < 5) must
	// not resurrect the entry afterwards.
	if applied, err := reg.ApplyRemote(RegistryUpdate{Name: "p", Version: 5, Deleted: true}); err != nil || !applied {
		t.Fatalf("tombstone: applied=%v err=%v", applied, err)
	}
	if applied, _ := reg.ApplyRemote(RegistryUpdate{Name: "p", Version: 4, Platform: plat}); applied {
		t.Fatal("pre-tombstone put resurrected the deleted entry")
	}
	if _, ok := reg.Get("p"); ok {
		t.Fatal("entry present after tombstone")
	}
	// Local writes resume above everything replicated.
	if v, err := reg.PutIfMatch("p", plat, nil); err != nil || v != 6 {
		t.Fatalf("local write after remote tombstone: v=%d err=%v, want 6,nil", v, err)
	}
}

// TestDeleteThenRestartNoResurrection is the journal-symmetry regression
// test: a deleted platform must stay deleted across a restart. The old
// code could leave the journal file behind while removing the map entry,
// so the next LoadDir resurrected the platform.
func TestDeleteThenRestartNoResurrection(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry()
	if err := reg.PersistTo(dir); err != nil {
		t.Fatal(err)
	}
	if err := reg.Put("lyon", testPlatform(4)); err != nil {
		t.Fatal(err)
	}
	if err := reg.Put("nice", testPlatform(3)); err != nil {
		t.Fatal(err)
	}
	if !reg.Delete("lyon") {
		t.Fatal("delete failed")
	}

	// "Restart": a fresh registry pointed at the same journal dir.
	reg2 := NewRegistry()
	names, err := reg2.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "nice" {
		t.Fatalf("recovered names = %v, want [nice] — deleted platform resurrected", names)
	}
	if _, ok := reg2.Get("lyon"); ok {
		t.Fatal("deleted platform resurrected after restart")
	}
	// The tombstone version survives the restart too: re-creating the
	// name continues the version line instead of restarting at 1, so
	// replicas never confuse the new entry with the deleted one.
	if v, err := reg2.PutIfMatch("lyon", testPlatform(4), nil); err != nil || v <= 2 {
		t.Fatalf("re-create after restart: v=%d err=%v, want version above the tombstone", v, err)
	}
}

// TestLoadDirRejectsInvalidBasenames proves load-side validation matches
// Delete's: a journal whose basename could never be deleted (or re-
// journalled) fails the load loudly instead of becoming a stuck entry.
func TestLoadDirRejectsInvalidBasenames(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry()
	if err := reg.PersistTo(dir); err != nil {
		t.Fatal(err)
	}
	if err := reg.Put("good", testPlatform(3)); err != nil {
		t.Fatal(err)
	}
	// A dot-prefixed basename passes the *.json suffix check but fails
	// validName — exactly the kind of file Delete could never remove by
	// name.
	if err := os.WriteFile(filepath.Join(dir, ".sneaky.json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewRegistry().LoadDir(dir); err == nil {
		t.Fatal("LoadDir accepted a journal with an invalid basename")
	}
}

// TestPlatformETagFlow drives optimistic concurrency over HTTP: ETags on
// GET/PUT, 412 on stale If-Match, wildcard and must-not-exist forms, and
// the version field in responses.
func TestPlatformETagFlow(t *testing.T) {
	_, ts := newTestServer(t)
	client := ts.Client()
	url := ts.URL + "/v1/platforms/lyon"
	platJSON, err := json.Marshal(testPlatform(4))
	if err != nil {
		t.Fatal(err)
	}

	do := func(method, ifMatch string, body []byte) (*http.Response, []byte) {
		t.Helper()
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequest(method, url, rd)
		if err != nil {
			t.Fatal(err)
		}
		if ifMatch != "" {
			req.Header.Set("If-Match", ifMatch)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp, data
	}

	// Create with If-Match: "0" (must not exist yet).
	resp, body := do(http.MethodPut, `"0"`, platJSON)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create: status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("ETag"); got != `"1"` {
		t.Fatalf("create ETag = %q, want %q", got, `"1"`)
	}

	// GET surfaces the same ETag.
	resp, _ = do(http.MethodGet, "", nil)
	if got := resp.Header.Get("ETag"); got != `"1"` {
		t.Fatalf("get ETag = %q, want %q", got, `"1"`)
	}

	// Conditional update against the current version succeeds and bumps.
	resp, body = do(http.MethodPut, `"1"`, platJSON)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("ETag") != `"2"` {
		t.Fatalf("conditional update: status %d ETag %q: %s", resp.StatusCode, resp.Header.Get("ETag"), body)
	}
	var putOut struct {
		Version uint64 `json:"version"`
	}
	if err := json.Unmarshal(body, &putOut); err != nil || putOut.Version != 2 {
		t.Fatalf("put body version = %d (%v): %s", putOut.Version, err, body)
	}

	// Replaying the same If-Match is the lost-update case: 412, and the
	// stale writer's body must not have been applied.
	resp, body = do(http.MethodPut, `"1"`, platJSON)
	if resp.StatusCode != http.StatusPreconditionFailed {
		t.Fatalf("stale update: status %d, want 412: %s", resp.StatusCode, body)
	}

	// Wildcard matches any existing version.
	resp, _ = do(http.MethodPut, "*", platJSON)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("ETag") != `"3"` {
		t.Fatalf("wildcard update: status %d ETag %q", resp.StatusCode, resp.Header.Get("ETag"))
	}

	// Malformed If-Match is a client error, not a silent unconditional
	// write.
	resp, body = do(http.MethodPut, "banana", platJSON)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed If-Match: status %d, want 400: %s", resp.StatusCode, body)
	}

	// Conditional delete: stale version rejected, current accepted.
	resp, body = do(http.MethodDelete, `"1"`, nil)
	if resp.StatusCode != http.StatusPreconditionFailed {
		t.Fatalf("stale delete: status %d, want 412: %s", resp.StatusCode, body)
	}
	resp, body = do(http.MethodDelete, `"3"`, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d: %s", resp.StatusCode, body)
	}
	var delOut struct {
		Deleted string `json:"deleted"`
		Version uint64 `json:"version"`
	}
	if err := json.Unmarshal(body, &delOut); err != nil || delOut.Version != 4 {
		t.Fatalf("delete body = %s (err %v), want tombstone version 4", body, err)
	}
	resp, _ = do(http.MethodGet, "", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("get after delete: status %d, want 404", resp.StatusCode)
	}
}

// TestConcurrentPutHTTPRace is the end-to-end form of the lost-update
// fix: many clients GET the ETag, then race conditional PUTs against it.
// Exactly one 200; every other client gets 412.
func TestConcurrentPutHTTPRace(t *testing.T) {
	_, ts := newTestServer(t)
	client := ts.Client()
	url := ts.URL + "/v1/platforms/raced"
	platJSON, err := json.Marshal(testPlatform(4))
	if err != nil {
		t.Fatal(err)
	}

	put := func(ifMatch string) int {
		req, err := http.NewRequest(http.MethodPut, url, bytes.NewReader(platJSON))
		if err != nil {
			t.Error(err)
			return 0
		}
		if ifMatch != "" {
			req.Header.Set("If-Match", ifMatch)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Error(err)
			return 0
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := put(""); code != http.StatusOK {
		t.Fatalf("seed put: status %d", code)
	}

	const clients = 8
	var wg sync.WaitGroup
	codes := make([]int, clients)
	start := make(chan struct{})
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			codes[i] = put(`"1"`) // every client read ETag "1"
		}(i)
	}
	close(start)
	wg.Wait()

	ok, stale := 0, 0
	for _, c := range codes {
		switch c {
		case http.StatusOK:
			ok++
		case http.StatusPreconditionFailed:
			stale++
		default:
			t.Fatalf("unexpected status %d in %v", c, codes)
		}
	}
	if ok != 1 || stale != clients-1 {
		t.Fatalf("codes %v: want exactly one 200 and %d 412s", codes, clients-1)
	}
}

// TestParseIfMatch pins the header grammar.
func TestParseIfMatch(t *testing.T) {
	cases := []struct {
		in      string
		want    *uint64
		wantErr bool
	}{
		{in: "", want: nil},
		{in: "*", want: ptr(MatchAny)},
		{in: `"7"`, want: ptr(uint64(7))},
		{in: "7", want: ptr(uint64(7))},
		{in: `"0"`, want: ptr(uint64(0))},
		{in: "banana", wantErr: true},
		{in: `""`, wantErr: true},
		{in: `"-1"`, wantErr: true},
		{in: fmt.Sprintf("%d", MatchAny), wantErr: true},
	}
	for _, c := range cases {
		got, err := parseIfMatch(c.in)
		if c.wantErr {
			if err == nil {
				t.Errorf("parseIfMatch(%q): no error", c.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseIfMatch(%q): %v", c.in, err)
			continue
		}
		switch {
		case c.want == nil && got != nil:
			t.Errorf("parseIfMatch(%q) = %d, want nil", c.in, *got)
		case c.want != nil && (got == nil || *got != *c.want):
			t.Errorf("parseIfMatch(%q) = %v, want %d", c.in, got, *c.want)
		}
	}
}

func ptr(v uint64) *uint64 { return &v }

// TestVersionsSidecarSkippedByLoadDir guards the sidecar naming contract:
// the version file lives in the journal dir but must never be parsed as
// a platform.
func TestVersionsSidecarSkippedByLoadDir(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry()
	if err := reg.PersistTo(dir); err != nil {
		t.Fatal(err)
	}
	if err := reg.Put("p", testPlatform(3)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, versionsSidecar)); err != nil {
		t.Fatalf("sidecar missing after journalled put: %v", err)
	}
	names, err := NewRegistry().LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "p" {
		t.Fatalf("names = %v, want [p]", names)
	}
}

// FuzzParseIfMatch holds the If-Match grammar to its contract on arbitrary
// headers: blank means unconditional, only "*" means MatchAny, anything
// else is a version or an error, and every ETag the daemon serves parses
// back to the version it was rendered from.
func FuzzParseIfMatch(f *testing.F) {
	for _, header := range []string{
		"", "  \t", "*", " * ", `"*"`,
		`"7"`, "7", ` "7" `, `"7`, `7"`, `""`, `"`, "+7", "-1", "banana",
		"18446744073709551614", `"18446744073709551615"`, "18446744073709551616",
	} {
		f.Add(header, uint64(len(header)))
	}
	f.Add(`"0"`, MatchAny)
	f.Fuzz(func(t *testing.T, header string, v uint64) {
		got, err := parseIfMatch(header)
		switch trimmed := strings.TrimSpace(header); {
		case err != nil && got != nil:
			t.Errorf("parseIfMatch(%q) = %d with error %v", header, *got, err)
		case trimmed == "":
			if got != nil || err != nil {
				t.Errorf("parseIfMatch(%q) = %v, %v; blank must be unconditional", header, got, err)
			}
		case trimmed == "*":
			if got == nil || *got != MatchAny {
				t.Errorf("parseIfMatch(%q) = %v, %v; want MatchAny", header, got, err)
			}
		case err == nil && got == nil:
			t.Errorf("parseIfMatch(%q) took a non-blank header for an unconditional write", header)
		case got != nil && *got == MatchAny:
			t.Errorf("parseIfMatch(%q) = MatchAny; only * may mean that", header)
		}

		back, err := parseIfMatch(etagFor(v))
		if v == MatchAny {
			if err == nil {
				t.Errorf("parseIfMatch(%s) accepted the wildcard's own value as a version", etagFor(v))
			}
		} else if err != nil || back == nil || *back != v {
			t.Errorf("parseIfMatch(etagFor(%d)) = %v, %v", v, back, err)
		}
	})
}
