package service

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"adept/internal/platform"
)

// bodyBuffers recycles the buffers platform PUT bodies are read into.
var bodyBuffers = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func (s *Server) handlePlatformList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]string{"platforms": s.registry.Names()})
}

func (s *Server) handlePlatformGet(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	p, version, ok := s.registry.GetVersion(name)
	if !ok {
		writeError(w, http.StatusNotFound, "platform %q not registered", name)
		return
	}
	w.Header().Set("ETag", etagFor(version))
	writeJSON(w, http.StatusOK, p)
}

// etagFor renders a registry version as the strong ETag carried by
// platform responses and compared by If-Match.
func etagFor(version uint64) string {
	return `"` + strconv.FormatUint(version, 10) + `"`
}

// parseIfMatch decodes an If-Match header into PutIfMatch's expectation:
// nil for an absent header (unconditional write), MatchAny for "*", else
// the numeric version with optional quotes. A malformed value is a client
// error, not an unconditional write — silently ignoring it would re-open
// the lost-update hole the header exists to close.
func parseIfMatch(header string) (*uint64, error) {
	header = strings.TrimSpace(header)
	if header == "" {
		return nil, nil
	}
	if header == "*" {
		v := MatchAny
		return &v, nil
	}
	unquoted := strings.TrimPrefix(strings.TrimSuffix(header, `"`), `"`)
	v, err := strconv.ParseUint(unquoted, 10, 64)
	if err != nil {
		return nil, fmt.Errorf("malformed If-Match %q: want a version number, a quoted version, or *", header)
	}
	if v == MatchAny {
		return nil, fmt.Errorf("malformed If-Match %q: version out of range", header)
	}
	return &v, nil
}

// writeRegistryError renders a refused registry write: 412 when the
// writer's read is stale — rejected visibly instead of silently dropping
// the concurrent writer's update — else 400.
func writeRegistryError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	if errors.Is(err, ErrVersionMismatch) {
		status = http.StatusPreconditionFailed
	}
	writeError(w, status, "%v", err)
}

func (s *Server) handlePlatformPut(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	expect, err := parseIfMatch(r.Header.Get("If-Match"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// The body is read into a reused buffer: what DecodeJSON keeps of it
	// is copied out. It is decoded, not validated — the registry validates
	// what it stores, by converting it into columns.
	body := bodyBuffers.Get().(*bytes.Buffer)
	defer bodyBuffers.Put(body)
	body.Reset()
	if _, err := body.ReadFrom(http.MaxBytesReader(w, r.Body, maxRequestBody)); err != nil {
		writeError(w, bodyErrorStatus(err), "read body: %v", err)
		return
	}
	p, err := platform.DecodeJSON(body.Bytes())
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	version, err := s.registry.PutIfMatch(name, p, expect)
	if err != nil {
		writeRegistryError(w, err)
		return
	}
	s.broadcast(RegistryUpdate{Name: name, Version: version, Platform: p})
	w.Header().Set("ETag", etagFor(version))
	writeJSON(w, http.StatusOK, map[string]any{"name": name, "nodes": len(p.Nodes), "version": version})
}

func (s *Server) handlePlatformDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	expect, err := parseIfMatch(r.Header.Get("If-Match"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	tombstone, existed, err := s.registry.DeleteIfMatch(name, expect)
	if err != nil {
		writeRegistryError(w, err)
		return
	}
	if !existed {
		writeError(w, http.StatusNotFound, "platform %q not registered", name)
		return
	}
	s.broadcast(RegistryUpdate{Name: name, Version: tombstone, Deleted: true})
	writeJSON(w, http.StatusOK, map[string]any{"deleted": name, "version": tombstone})
}
