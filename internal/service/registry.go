package service

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
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

// regEntry is one stored platform: its columns, the registry's private,
// never-mutated form of it (a write replaces the entry), its monotonic
// version, and its content digest, computed once when the entry was written.
type regEntry struct {
	cols    *platform.Columns
	version uint64
	digest  [sha256.Size]byte
}

// newRegEntry is the registry's one write path into an entry: it converts
// p into columns — the platform's one validation, whichever way it arrived
// (PUT, ApplyRemote, LoadDir) — and digests it. The columns share nothing
// mutable with p, so the caller keeps p.
func newRegEntry(p *platform.Platform, version uint64) (*regEntry, error) {
	cols, err := p.Columns()
	if err != nil {
		return nil, err
	}
	return &regEntry{cols: cols, version: version, digest: p.Digest()}, nil
}

// Registry is a concurrency-safe store of named, versioned platform
// descriptions. Plan requests may reference a registered platform by name
// instead of inlining the full node list, so clients describe their pool
// once and plan against it many times: everything O(nodes) about a
// platform — validation, the columns the planners read, the content digest
// plans are addressed by — is paid when it is written, and a plan request
// reads the result (Resident).
//
// Every entry carries a monotonic version: each Put bumps it, each Delete
// records a tombstone version, and conditional writes (PutIfMatch /
// DeleteIfMatch) reject stale writers with ErrVersionMismatch instead of
// silently dropping their predecessor's update. Versions survive
// delete/re-create (the counter never rewinds for a name), which is what
// lets replicated peers order updates by version alone.
//
// With PersistTo enabled, every write journals the platform to disk
// (atomic temp-file rename) plus a version sidecar, and every delete
// removes the journal, so a daemon restart pointed at the same directory
// keeps its registered platforms — and deleted entries stay deleted.
type Registry struct {
	mu        sync.RWMutex
	platforms map[string]*regEntry
	// versions records the highest version ever seen per name, including
	// tombstones of deleted entries — guarded by mu with the map.
	versions map[string]uint64
	// persistMu serialises all writers (and their journal I/O), pinning
	// version check-then-act sequences and disk ordering against the map
	// updates without ever holding the read-path lock across disk writes:
	// a slow disk must not stall /v1/plan lookups in Get.
	persistMu  sync.Mutex
	persistDir string // guarded by persistMu
}

// NewRegistry returns an empty, non-persisting registry.
func NewRegistry() *Registry {
	return &Registry{
		platforms: make(map[string]*regEntry),
		versions:  make(map[string]uint64),
	}
}

// versionsSidecar is the file (inside the persist dir) recording the
// per-name version counters, tombstones included. It deliberately does
// not end in .json so LoadDir never mistakes it for a platform journal.
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
	// Converted and digested outside the writer lock; the version is known
	// only under it.
	entry, err := newRegEntry(p, 0)
	if err != nil {
		return 0, err
	}
	// persistMu serialises every writer, so the version comparison below
	// and the write that follows are one atomic step with respect to any
	// concurrent PutIfMatch/DeleteIfMatch on the same name.
	r.persistMu.Lock()
	defer r.persistMu.Unlock()
	r.mu.RLock()
	current := uint64(0)
	if e := r.platforms[name]; e != nil {
		current = e.version
	}
	next := r.versions[name] + 1
	r.mu.RUnlock()
	if err := checkMatch(name, current, expect); err != nil {
		return 0, err
	}
	if r.persistDir != "" {
		if err := persistPlatform(r.persistDir, name, p); err != nil {
			return 0, err
		}
	}
	entry.version = next
	r.mu.Lock()
	r.platforms[name] = entry
	r.versions[name] = next
	r.mu.Unlock()
	r.persistVersionsLocked()
	return next, nil
}

// checkMatch compares an entry's current version against the caller's
// expectation (PutIfMatch semantics). current is 0 when the entry does
// not exist.
func checkMatch(name string, current uint64, expect *uint64) error {
	if expect == nil {
		return nil
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

// persistPlatform journals p as dir/name.json.
func persistPlatform(dir, name string, p *platform.Platform) error {
	data, err := p.MarshalIndent()
	if err == nil {
		err = writeFileAtomic(dir, name+".json", data)
	}
	if err != nil {
		return fmt.Errorf("service: persist %q: %w", name, err)
	}
	return nil
}

// persistVersionsLocked journals the version counters (tombstones
// included) into the sidecar file. Callers hold persistMu. Best-effort:
// the sidecar is an optimisation for cross-restart version continuity,
// not a correctness requirement for the in-memory store.
func (r *Registry) persistVersionsLocked() {
	if r.persistDir == "" {
		return
	}
	r.mu.RLock()
	// json.Marshal emits map keys in sorted order, so the sidecar bytes
	// are deterministic for equal contents.
	data, err := json.Marshal(r.versions)
	r.mu.RUnlock()
	if err == nil {
		_ = writeFileAtomic(r.persistDir, versionsSidecar, data)
	}
}

// Get returns a copy of the named platform, or false when absent.
func (r *Registry) Get(name string) (*platform.Platform, bool) {
	p, _, ok := r.GetVersion(name)
	return p, ok
}

// entry returns the named entry, or nil when absent. Entries are immutable
// once stored, so the caller reads it without the lock.
func (r *Registry) entry(name string) *regEntry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.platforms[name]
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
// persisting), reporting whether it existed.
func (r *Registry) Delete(name string) bool {
	_, ok, _ := r.DeleteIfMatch(name, nil)
	return ok
}

// DeleteIfMatch removes the named platform under PutIfMatch's expect
// semantics and returns the tombstone version — the deletion is itself a
// versioned event, so replicated peers can order it against concurrent
// puts. The journal file is always removed alongside the entry: every
// name in the map passed validName on the way in (LoadDir and Put agree
// on validation), so there is no such thing as an entry whose journal
// cannot be deleted — the asymmetry that used to resurrect entries on
// restart.
func (r *Registry) DeleteIfMatch(name string, expect *uint64) (uint64, bool, error) {
	r.persistMu.Lock()
	defer r.persistMu.Unlock()
	r.mu.Lock()
	e, ok := r.platforms[name]
	current := uint64(0)
	if ok {
		current = e.version
	}
	if err := checkMatch(name, current, expect); err != nil {
		r.mu.Unlock()
		return 0, ok, err
	}
	if !ok {
		r.mu.Unlock()
		return 0, false, nil
	}
	delete(r.platforms, name)
	tombstone := r.versions[name] + 1
	r.versions[name] = tombstone
	r.mu.Unlock()
	if r.persistDir != "" {
		_ = os.Remove(filepath.Join(r.persistDir, name+".json"))
	}
	r.persistVersionsLocked()
	return tombstone, true, nil
}

// Names returns the registered names in sorted order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.platforms))
	for name := range r.platforms {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Len returns the number of registered platforms.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.platforms)
}

// LoadDir registers every *.json platform description in dir under its
// file basename (sans extension). It returns the names registered; a file
// that fails to parse or validate — or whose basename would not be a
// valid registry name — aborts the load with an error naming it, so the
// set of loadable journals and the set of deletable entries are exactly
// the same set: nothing can be loaded that Delete could not later remove.
// Entry versions are restored from the version sidecar when present
// (tombstoned names whose journal reappeared resume above their tombstone,
// never below), defaulting to 1 for journals from before versioning.
func (r *Registry) LoadDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("service: load platforms: %w", err)
	}
	versions := loadVersions(dir)
	// Fold the whole sidecar into the version map up front, tombstones
	// included: a deleted name has no journal file to loop over below,
	// but its version line must still resume above the tombstone when
	// the name is re-created after the restart.
	r.persistMu.Lock()
	r.mu.Lock()
	for name, v := range versions {
		if v > r.versions[name] {
			r.versions[name] = v
		}
	}
	r.mu.Unlock()
	r.persistMu.Unlock()
	var names []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		name := strings.TrimSuffix(e.Name(), ".json")
		// Reject at load, with the same validator Delete relies on: a
		// journal that sneaked in under a non-conforming filename must
		// fail loudly here, not become an undeletable registry entry.
		if err := validName(name); err != nil {
			return nil, fmt.Errorf("service: load %s: %w", e.Name(), err)
		}
		version := versions[name]
		if version == 0 {
			version = 1
		}
		entry, err := loadEntry(filepath.Join(dir, e.Name()), version)
		if err != nil {
			return nil, fmt.Errorf("service: load %s: %w", e.Name(), err)
		}
		r.persistMu.Lock()
		r.mu.Lock()
		r.platforms[name] = entry
		if version > r.versions[name] {
			r.versions[name] = version
		}
		r.mu.Unlock()
		r.persistMu.Unlock()
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// loadEntry reads one platform journal into an entry: decoded, then
// validated by the write path's conversion.
func loadEntry(path string, version uint64) (*regEntry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("platform: %w", err)
	}
	p, err := platform.DecodeJSON(data)
	if err != nil {
		return nil, err
	}
	return newRegEntry(p, version)
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
