package service

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestRegistryMatchesModel runs seeded random sequences of every registry
// write — PUT and DELETE under each If-Match form, a peer's put or
// tombstone at a newer, equal or older version, and a restart from the
// journal — against a reference model of the version rules. After every
// step it compares what a client can see: the names, each name's version
// and size, and the version the next PUT would mint, read off a registry
// reloaded from the journal (so the disk is held to the model too).
func TestRegistryMatchesModel(t *testing.T) {
	// register is the model: a name's highest version, tombstones
	// included, and whether it holds a platform (of nodes nodes).
	type register struct {
		version uint64
		live    bool
		nodes   int
	}
	names := []string{"a", "b", "c"}
	for seed := int64(1); seed <= 16; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		reg := NewRegistry()
		if err := reg.PersistTo(dir); err != nil {
			t.Fatal(err)
		}
		model := map[string]register{}
		for step := 0; step < 60; step++ {
			name := names[rng.Intn(len(names))]
			m := model[name]
			current := uint64(0) // what If-Match compares: 0 unless live
			if m.live {
				current = m.version
			}
			expect := []*uint64{nil, ptr(0), ptr(MatchAny), ptr(current), ptr(current + 1 + uint64(rng.Intn(3)))}[rng.Intn(5)]
			matches := expect == nil || *expect == current || *expect == MatchAny && m.live
			nodes := 2 + rng.Intn(4)
			var op string
			switch rng.Intn(5) {
			case 0, 1:
				var v uint64
				var err error
				if expect == nil && rng.Intn(2) == 0 {
					// Put reports no version; GetVersion below checks it.
					op = fmt.Sprintf("Put(%s)", name)
					v, err = m.version+1, reg.Put(name, testPlatform(nodes))
				} else {
					op = fmt.Sprintf("PutIfMatch(%s, %s)", name, show(expect))
					v, err = reg.PutIfMatch(name, testPlatform(nodes), expect)
				}
				if !matches {
					if !errors.Is(err, ErrVersionMismatch) {
						t.Fatalf("seed %d step %d %s: err=%v, want ErrVersionMismatch", seed, step, op, err)
					}
					break
				}
				m = register{version: m.version + 1, live: true, nodes: nodes}
				if err != nil || v != m.version {
					t.Fatalf("seed %d step %d %s: v=%d err=%v, want %d", seed, step, op, v, err, m.version)
				}
			case 2:
				op = fmt.Sprintf("DeleteIfMatch(%s, %s)", name, show(expect))
				tomb, existed, err := reg.DeleteIfMatch(name, expect)
				wasLive, want := m.live, uint64(0)
				if matches && m.live {
					m = register{version: m.version + 1}
					want = m.version
				}
				if tomb != want || existed != wasLive || (err == nil) != matches ||
					err != nil && !errors.Is(err, ErrVersionMismatch) {
					t.Fatalf("seed %d step %d %s: tomb=%d existed=%v err=%v, want tomb %d existed %v",
						seed, step, op, tomb, existed, err, want, wasLive)
				}
			case 3:
				// Older, equal or newer than the name's version; never 0.
				version := max(m.version+uint64(rng.Intn(4)), 2) - 1
				u := RegistryUpdate{Name: name, Version: version, Deleted: rng.Intn(3) == 0}
				if !u.Deleted {
					u.Platform = testPlatform(nodes)
				}
				op = fmt.Sprintf("ApplyRemote(%s v%d deleted=%v)", name, u.Version, u.Deleted)
				applied, err := reg.ApplyRemote(u)
				if err != nil || applied != (u.Version > m.version) {
					t.Fatalf("seed %d step %d %s at v%d: applied=%v err=%v", seed, step, op, m.version, applied, err)
				}
				if applied {
					m = register{version: u.Version, live: !u.Deleted, nodes: nodes}
				}
			default:
				op = "restart"
				reg = NewRegistry()
				if err := reg.PersistTo(dir); err != nil {
					t.Fatal(err)
				}
				if _, err := reg.LoadDir(dir); err != nil {
					t.Fatalf("seed %d step %d %s: %v", seed, step, op, err)
				}
			}
			model[name] = m

			var live []string
			for _, n := range names {
				if model[n].live {
					live = append(live, n)
				}
			}
			if got := reg.Names(); !slices.Equal(got, live) {
				t.Fatalf("seed %d step %d %s: Names() = %v, want %v", seed, step, op, got, live)
			}
			probe := NewRegistry()
			if _, err := probe.LoadDir(dir); err != nil {
				t.Fatalf("seed %d step %d %s: reload: %v", seed, step, op, err)
			}
			for _, n := range names {
				want := model[n]
				p, v, ok := reg.GetVersion(n)
				if ok != want.live || ok && (v != want.version || len(p.Nodes) != want.nodes) {
					t.Fatalf("seed %d step %d %s: GetVersion(%s) = v%d ok=%v, want %+v", seed, step, op, n, v, ok, want)
				}
				if v, err := probe.PutIfMatch(n, testPlatform(2), nil); err != nil || v != want.version+1 {
					t.Fatalf("seed %d step %d %s: next PUT of %s mints v%d (err %v), want v%d", seed, step, op, n, v, err, want.version+1)
				}
			}
		}
	}
}

// show renders an If-Match expectation for a failure message.
func show(expect *uint64) string {
	switch {
	case expect == nil:
		return "none"
	case *expect == MatchAny:
		return "*"
	}
	return etagFor(*expect)
}

// TestApplyRemoteJournalFailureLeavesNoTrace: a peer's update that cannot
// be journalled is refused whole — nothing installed, the version line
// untouched — so the peer's retry applies it and journals it. Installed
// before its journal failed, the update would answer that retry "already
// applied" and be gone after the next restart.
func TestApplyRemoteJournalFailureLeavesNoTrace(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry()
	if err := reg.PersistTo(dir); err != nil {
		t.Fatal(err)
	}
	if err := reg.Put("p", testPlatform(4)); err != nil {
		t.Fatal(err)
	}
	// A directory where the journal goes fails its rename (as root too,
	// unlike a read-only mode).
	journal := filepath.Join(dir, "p.json")
	if err := os.Remove(journal); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(journal, 0o755); err != nil {
		t.Fatal(err)
	}
	u := RegistryUpdate{Name: "p", Version: 3, Platform: testPlatform(5)}
	if applied, err := reg.ApplyRemote(u); applied || err == nil {
		t.Fatalf("unjournalled update: applied=%v err=%v, want refused with an error", applied, err)
	}
	if p, v, ok := reg.GetVersion("p"); !ok || v != 1 || len(p.Nodes) != 4 {
		t.Fatalf("after the refused update: v%d ok=%v, want the 4-node entry at v1", v, ok)
	}

	if err := os.Remove(journal); err != nil {
		t.Fatal(err)
	}
	if applied, err := reg.ApplyRemote(u); !applied || err != nil {
		t.Fatalf("redelivery: applied=%v err=%v, want applied", applied, err)
	}
	restarted := NewRegistry()
	if _, err := restarted.LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	if p, v, ok := restarted.GetVersion("p"); !ok || v != 3 || len(p.Nodes) != 5 {
		t.Fatalf("after a restart: v%d ok=%v, want the redelivered 5-node entry at v3", v, ok)
	}
}

// TestDeleteJournalFailureLeavesNoTrace: a delete — local or a peer's —
// whose journal cannot be removed is refused, and the platform stays, at
// its version; a tombstone installed over a journal still on disk would
// come back to life at the next restart.
func TestDeleteJournalFailureLeavesNoTrace(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry()
	if err := reg.PersistTo(dir); err != nil {
		t.Fatal(err)
	}
	if err := reg.Put("p", testPlatform(4)); err != nil {
		t.Fatal(err)
	}
	// A non-empty directory in the journal's place cannot be removed.
	journal := filepath.Join(dir, "p.json")
	if err := os.Remove(journal); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(journal, "pinned"), 0o755); err != nil {
		t.Fatal(err)
	}
	if tomb, existed, err := reg.DeleteIfMatch("p", nil); tomb != 0 || !existed || err == nil {
		t.Fatalf("unjournalled delete: tomb=%d existed=%v err=%v, want refused with an error", tomb, existed, err)
	}
	if applied, err := reg.ApplyRemote(RegistryUpdate{Name: "p", Version: 5, Deleted: true}); applied || err == nil {
		t.Fatalf("unjournalled remote delete: applied=%v err=%v, want refused with an error", applied, err)
	}
	if _, v, ok := reg.GetVersion("p"); !ok || v != 1 {
		t.Fatalf("after the refused deletes: v%d ok=%v, want the entry at v1", v, ok)
	}
	if err := os.RemoveAll(journal); err != nil {
		t.Fatal(err)
	}
	if !reg.Delete("p") {
		t.Fatal("delete with its journal removable: refused")
	}
}
