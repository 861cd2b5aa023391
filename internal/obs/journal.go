package obs

import (
	"sync"
	"time"
)

// Event is one autonomic decision recorded in the journal: a detection
// (drift, sag, crash), a replan outcome, a patch application, or a
// cycle error, with free-form string fields for the details.
type Event struct {
	Seq    uint64            `json:"seq"`
	At     time.Time         `json:"at"`
	Kind   string            `json:"kind"`
	Msg    string            `json:"msg"`
	Fields map[string]string `json:"fields,omitempty"`
}

// Journal is a bounded ring of Events. Appends evict the oldest entry
// once capacity is reached; sequence numbers are monotone for the life
// of the journal so clients can poll with Since without missing or
// re-reading events (absent overflow).
type Journal struct {
	mu    sync.Mutex
	buf   []Event
	next  int // ring write index
	n     int // entries currently held
	seq   uint64
	total uint64
}

// NewJournal returns a journal holding at most capacity events
// (minimum 1).
func NewJournal(capacity int) *Journal {
	if capacity < 1 {
		capacity = 1
	}
	return &Journal{buf: make([]Event, capacity)}
}

// Append records an event and returns its sequence number. The fields
// map is stored as given; callers must not mutate it afterwards.
func (j *Journal) Append(kind, msg string, fields map[string]string) uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.seq++
	j.total++
	j.buf[j.next] = Event{Seq: j.seq, At: time.Now().UTC(), Kind: kind, Msg: msg, Fields: fields}
	j.next = (j.next + 1) % len(j.buf)
	if j.n < len(j.buf) {
		j.n++
	}
	return j.seq
}

// Snapshot returns the retained events, oldest first.
func (j *Journal) Snapshot() []Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Event, 0, j.n)
	start := j.next - j.n
	if start < 0 {
		start += len(j.buf)
	}
	for i := 0; i < j.n; i++ {
		out = append(out, j.buf[(start+i)%len(j.buf)])
	}
	return out
}

// SinceTruncated returns retained events with Seq > seq, oldest first,
// plus whether the ring evicted events the caller has not seen: a
// client that polls with a stale cursor gets the oldest retained
// events and truncated=true instead of an error or a silent gap.
// Sequence numbers are dense (Append allocates them 1, 2, 3, …), so
// eviction is exactly "the oldest retained Seq skipped past seq+1".
func (j *Journal) SinceTruncated(seq uint64) (events []Event, truncated bool) {
	all := j.Snapshot()
	if len(all) == 0 {
		return nil, false
	}
	truncated = all[0].Seq > seq+1
	for i, e := range all {
		if e.Seq > seq {
			return all[i:], truncated
		}
	}
	// Everything retained was already seen; nothing was missed either
	// (the caller's cursor is at or past the newest event).
	return nil, false
}

// Total returns the number of events ever appended (retained or
// evicted).
func (j *Journal) Total() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.total
}
