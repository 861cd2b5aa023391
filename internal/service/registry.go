package service

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"adept/internal/platform"
)

// ErrVersionMismatch reports a conditional write whose expected version no
// longer matches the entry — the caller's read is stale and its update
// must not silently overwrite the concurrent writer's. The HTTP layer
// maps it to 412 Precondition Failed.
var ErrVersionMismatch = errors.New("service: platform version mismatch")

// MatchAny is the expected-version wildcard (If-Match: *): the entry must
// exist, at any version.
const MatchAny = ^uint64(0)

// regEntry is one register of the registry: a name's version and what it
// holds at that version. A live entry holds columns — the registry's
// private, never-mutated form of the platform (a write installs a new
// entry) — and their content digest, computed once when it was written. A
// tombstone is an entry too, with no columns: the version a delete (or a
// peer's delete) landed at, kept so that the name's version line never
// rewinds.
type regEntry struct {
	cols    *platform.Columns // nil for a tombstone
	version uint64
	digest  [sha256.Size]byte
}

// absent is the entry of a name never written: a tombstone at version 0.
var absent regEntry

// newRegEntry is the registry's one way into a live entry: it takes
// columns that were validated where they were built — decoded from JSON (a
// PUT, LoadDir) or converted from a platform (PutIfMatch, ApplyRemote) —
// and digests them. A write's version is the one commit decides.
func newRegEntry(cols *platform.Columns, version uint64) *regEntry {
	return &regEntry{cols: cols, version: version, digest: cols.Digest()}
}

// Registry is a concurrency-safe store of named, versioned platform
// descriptions. Plan requests may reference a registered platform by name
// instead of inlining the full node list, so clients describe their pool
// once and plan against it many times: everything O(nodes) about a
// platform — validation, the columns the planners read, the content digest
// plans are addressed by — is paid when it is written, and a plan request
// reads the result (Resident).
//
// It is one map of registers (regEntry), one per name ever written: a
// delete leaves a tombstone entry, which readers treat as absent. Every
// write goes through commit, which decides the version it lands at from
// the name's current entry: each Put bumps it, each Delete bumps it into a
// tombstone, and conditional writes (PutIfMatch / DeleteIfMatch) reject
// stale writers with ErrVersionMismatch instead of silently dropping their
// predecessor's update. Versions survive delete/re-create (the counter
// never rewinds for a name), which is what lets replicated peers order
// updates by version alone.
//
// With PersistTo enabled, every write journals before it is installed —
// the platform written to <name>.json (atomic temp-file rename), or the
// file removed for a tombstone — and then rewrites a version sidecar from
// the entries, so a daemon restart pointed at the same directory keeps its
// registered platforms, deleted entries stay deleted, and a write whose
// journal failed is not installed at all.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*regEntry
	// persistMu serialises all writers (and their journal I/O), pinning
	// version check-then-act sequences and disk ordering against the map
	// updates without ever holding the read-path lock across disk writes:
	// a slow disk must not stall /v1/plan lookups in Get. A holder reads
	// the map without mu: only a holder writes it.
	persistMu  sync.Mutex
	persistDir string // guarded by persistMu
}

// NewRegistry returns an empty, non-persisting registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*regEntry)}
}

// versionsSidecar is the file (inside the persist dir) recording every
// entry's version, tombstones included. It deliberately does not end in
// .json so LoadDir never mistakes it for a platform journal.
const versionsSidecar = ".adept-versions"

// PersistTo enables journaling: subsequent Puts write <name>.json into dir
// via a same-directory temp file renamed into place (atomic on POSIX), and
// Deletes remove the file. The directory is created if missing. Platforms
// already registered are not re-journalled; pair with LoadDir at startup.
func (r *Registry) PersistTo(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("service: persist dir: %w", err)
	}
	r.persistMu.Lock()
	defer r.persistMu.Unlock()
	r.persistDir = dir
	return nil
}

// commit is the registry's one write. Under persistMu, decide sees the
// name's current entry — live, tombstone or absent — and returns the
// version e lands at, 0 for a write that changes nothing, or an error.
// The write is then journalled, installed and recorded in the sidecar, in
// that order: a write whose journal fails is not installed.
func (r *Registry) commit(name string, e *regEntry, decide func(cur *regEntry) (uint64, error)) (uint64, error) {
	r.persistMu.Lock()
	defer r.persistMu.Unlock()
	cur := r.entries[name]
	if cur == nil {
		cur = &absent
	}
	version, err := decide(cur)
	if version == 0 || err != nil {
		return 0, err
	}
	e.version = version
	if r.persistDir != "" {
		if err := journal(r.persistDir, name, e); err != nil {
			return 0, err
		}
	}
	r.install(name, e)
	r.persistVersionsLocked()
	return version, nil
}

// install makes e the named entry, for readers too. Callers hold
// persistMu; it is the one place the map is written.
func (r *Registry) install(name string, e *regEntry) {
	r.mu.Lock()
	r.entries[name] = e
	r.mu.Unlock()
}

// validName rejects names that cannot double as file basenames: the
// registry journals entries as <name>.json, so a name must not escape the
// persist directory or collide with the journal's temp files.
func validName(name string) error {
	if name == "" {
		return fmt.Errorf("service: empty platform name")
	}
	if name == "." || name == ".." || strings.ContainsAny(name, `/\`) || strings.HasPrefix(name, ".") {
		return fmt.Errorf("service: invalid platform name %q", name)
	}
	return nil
}

// Put validates p and stores it under name, replacing any previous entry
// and bumping its version (unconditional last-write-wins; use PutIfMatch
// to reject stale writers). The registry keeps its own columns, so later
// caller mutations cannot leak in.
func (r *Registry) Put(name string, p *platform.Platform) error {
	_, err := r.PutIfMatch(name, p, nil)
	return err
}

// PutIfMatch stores p under name with optimistic concurrency control.
// expect nil writes unconditionally; &MatchAny requires any existing
// entry; any other value must equal the entry's current version, with 0
// meaning "must not exist yet". A stale expectation returns
// ErrVersionMismatch — the caller's read-modify-write lost a race and
// must re-read, not overwrite. The new version is returned. The registry
// stores columns converted from p, never p itself.
func (r *Registry) PutIfMatch(name string, p *platform.Platform, expect *uint64) (uint64, error) {
	if err := validName(name); err != nil {
		return 0, err
	}
	if p == nil {
		return 0, fmt.Errorf("service: nil platform %q", name)
	}
	cols, err := p.Columns()
	if err != nil {
		return 0, err
	}
	return r.putColumns(name, cols, expect)
}

// putColumns is PutIfMatch for columns already validated (DecodeJSON's,
// a PUT's): it stores them as they are, one version above the name's
// current entry. The platform is expanded only to be journalled, when
// persisting.
func (r *Registry) putColumns(name string, cols *platform.Columns, expect *uint64) (uint64, error) {
	if err := validName(name); err != nil {
		return 0, err
	}
	// Digested outside the writer lock; the version is known only under it.
	return r.commit(name, newRegEntry(cols, 0), func(cur *regEntry) (uint64, error) {
		return cur.version + 1, checkMatch(name, cur, expect)
	})
}

// checkMatch compares an entry's current version against the caller's
// expectation (PutIfMatch semantics). A tombstone, like an absent name,
// is at version 0 here.
func checkMatch(name string, cur *regEntry, expect *uint64) error {
	if expect == nil {
		return nil
	}
	current := uint64(0)
	if cur.cols != nil {
		current = cur.version
	}
	switch {
	case *expect == MatchAny:
		if current == 0 {
			return fmt.Errorf("%w: %q does not exist (If-Match: *)", ErrVersionMismatch, name)
		}
	case *expect != current:
		return fmt.Errorf("%w: %q is at version %d, not %d", ErrVersionMismatch, name, current, *expect)
	}
	return nil
}

// writeFileAtomic writes data as dir/file through a same-directory temp
// file and an atomic rename. The temp file is flushed before the rename
// and the directory after it, so a crash or power loss leaves either the
// old file, or the new one whole, plus at most a temp file the next
// LoadDir ignores — never an empty or torn journal behind a finished
// rename.
func writeFileAtomic(dir, file string, data []byte) error {
	tmp, err := os.CreateTemp(dir, file+".tmp-*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), filepath.Join(dir, file))
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return syncDir(dir)
}

// syncDir flushes dir's entries, making a rename inside it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// journal makes dir/<name>.json say what e says: the platform, written
// whole, or — for a tombstone — no file.
func journal(dir, name string, e *regEntry) error {
	var err error
	if e.cols != nil {
		var data []byte
		if data, err = e.cols.Platform().MarshalIndent(); err == nil {
			err = writeFileAtomic(dir, name+".json", data)
		}
	} else if err = os.Remove(filepath.Join(dir, name+".json")); errors.Is(err, fs.ErrNotExist) {
		err = nil
	}
	if err != nil {
		return fmt.Errorf("service: persist %q: %w", name, err)
	}
	return nil
}

// persistVersionsLocked rewrites the sidecar from the entries' versions,
// tombstones included. Callers hold persistMu. Best-effort: the sidecar is
// an optimisation for cross-restart version continuity, not a correctness
// requirement for the in-memory store.
func (r *Registry) persistVersionsLocked() {
	if r.persistDir == "" {
		return
	}
	versions := make(map[string]uint64, len(r.entries))
	for name, e := range r.entries {
		versions[name] = e.version
	}
	// json.Marshal emits map keys in sorted order, so the sidecar bytes
	// are deterministic for equal contents.
	if data, err := json.Marshal(versions); err == nil {
		_ = writeFileAtomic(r.persistDir, versionsSidecar, data)
	}
}

// Get returns a copy of the named platform, or false when absent.
func (r *Registry) Get(name string) (*platform.Platform, bool) {
	p, _, ok := r.GetVersion(name)
	return p, ok
}

// entry returns the named live entry, or nil when the name is absent or a
// tombstone. Entries are immutable once stored, so the caller reads it
// without the lock.
func (r *Registry) entry(name string) *regEntry {
	r.mu.RLock()
	e := r.entries[name]
	r.mu.RUnlock()
	if e == nil || e.cols == nil {
		return nil
	}
	return e
}

// GetVersion returns a copy of the named platform — the expansion of its
// columns, field for field what was written — plus its current version
// (the ETag conditional writes compare against), or false when absent.
func (r *Registry) GetVersion(name string) (*platform.Platform, uint64, bool) {
	e := r.entry(name)
	if e == nil {
		return nil, 0, false
	}
	return e.cols.Platform(), e.version, true
}

// Resident returns the registry's own columns of the named platform and
// its content digest (platform.Platform.Digest, computed when the entry
// was written), or false when absent. Nothing is copied, hashed or
// validated here: the columns were built by the platform's one validation
// and are never mutated — a later write installs a new entry — so the
// caller may read them for as long as it likes and must not write to them.
func (r *Registry) Resident(name string) (*platform.Columns, [sha256.Size]byte, bool) {
	e := r.entry(name)
	if e == nil {
		return nil, [sha256.Size]byte{}, false
	}
	return e.cols, e.digest, true
}

// Delete removes the named platform (and its journal file, when
// persisting), reporting whether it removed one.
func (r *Registry) Delete(name string) bool {
	tombstone, _, _ := r.DeleteIfMatch(name, nil)
	return tombstone != 0
}

// DeleteIfMatch removes the named platform under PutIfMatch's expect
// semantics and returns the tombstone version — the deletion is itself a
// versioned event, so replicated peers can order it against concurrent
// puts. existed reports whether a platform was there. The journal file is
// removed before the tombstone is installed: every name in the map passed
// validName on the way in (LoadDir and Put agree on validation), so there
// is no such thing as an entry whose journal cannot be deleted — the
// asymmetry that used to resurrect entries on restart.
func (r *Registry) DeleteIfMatch(name string, expect *uint64) (uint64, bool, error) {
	existed := false
	tombstone, err := r.commit(name, &regEntry{}, func(cur *regEntry) (uint64, error) {
		existed = cur.cols != nil
		if err := checkMatch(name, cur, expect); err != nil || !existed {
			return 0, err
		}
		return cur.version + 1, nil
	})
	return tombstone, existed, err
}

// Names returns the registered names in sorted order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.entries))
	for name, e := range r.entries {
		if e.cols != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// Len returns the number of registered platforms.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := 0
	for _, e := range r.entries {
		if e.cols != nil {
			n++
		}
	}
	return n
}

// LoadDir registers every *.json platform description in dir under its
// file basename (sans extension), for a registry at startup. It returns
// the names registered; a file that fails to parse or validate — or whose
// basename would not be a valid registry name — aborts the load with an
// error naming it, so the set of loadable journals and the set of
// deletable entries are exactly the same set: nothing can be loaded that
// Delete could not later remove. Every version in the sidecar is installed
// as a tombstone first, and every journal then as a live entry at its
// sidecar version (1 for journals from before versioning): a deleted name
// has no journal, but its version line resumes above the tombstone when
// the name is re-created.
func (r *Registry) LoadDir(dir string) ([]string, error) {
	files, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("service: load platforms: %w", err)
	}
	r.persistMu.Lock()
	defer r.persistMu.Unlock()
	versions := loadVersions(dir)
	for name, v := range versions {
		r.install(name, &regEntry{version: v})
	}
	var names []string
	for _, f := range files {
		if f.IsDir() || !strings.HasSuffix(f.Name(), ".json") {
			continue
		}
		name := strings.TrimSuffix(f.Name(), ".json")
		// Reject at load, with the same validator Delete relies on: a
		// journal that sneaked in under a non-conforming filename must
		// fail loudly here, not become an undeletable registry entry.
		if err := validName(name); err != nil {
			return nil, fmt.Errorf("service: load %s: %w", f.Name(), err)
		}
		cols, err := loadColumns(filepath.Join(dir, f.Name()))
		if err != nil {
			return nil, fmt.Errorf("service: load %s: %w", f.Name(), err)
		}
		r.install(name, newRegEntry(cols, max(versions[name], 1)))
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// loadColumns reads one platform journal, decoded straight into validated
// columns.
func loadColumns(path string) (*platform.Columns, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("platform: %w", err)
	}
	return platform.DecodeJSON(data)
}

// loadVersions reads the version sidecar, tolerating its absence (dirs
// journalled before versioning) and corruption (versions restart at 1).
func loadVersions(dir string) map[string]uint64 {
	data, err := os.ReadFile(filepath.Join(dir, versionsSidecar))
	if err != nil {
		return nil
	}
	var versions map[string]uint64
	if err := json.Unmarshal(data, &versions); err != nil {
		return nil
	}
	return versions
}
