package runtime

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Transport delivers envelopes between named elements. Implementations must
// be safe for concurrent use.
type Transport interface {
	// Register creates the inbox for a named element. Registering the same
	// name twice is an error.
	Register(name string) (<-chan Envelope, error)
	// Send delivers msg to the named element's inbox.
	Send(from, to string, msg any) error
	// Deregister removes a named element and closes its inbox, freeing the
	// name for a later Register. Live reconfiguration (RemoveServer,
	// promotion) retires elements this way without tearing the transport
	// down. Deregistering an unknown name is an error.
	Deregister(name string) error
	// Close tears the transport down; pending inboxes are closed.
	Close() error
}

// inboxSize is the per-element buffered inbox capacity. Large enough that
// a saturated element back-pressures senders instead of deadlocking the
// protocol's request/reply cycles.
const inboxSize = 1024

// inbox is one element's guarded mailbox: the closed flag and the channel
// close are synchronised with in-flight sends, so live deregistration (an
// element retired by a reconfiguration patch) cannot race a sender.
type inbox struct {
	mu     sync.RWMutex
	ch     chan Envelope
	closed bool
}

func newInbox() *inbox {
	return &inbox{ch: make(chan Envelope, inboxSize)}
}

// send delivers env unless the inbox is already retired. The read lock is
// held across the (possibly blocking) channel send; close waits for it, and
// the element keeps draining its channel until close, so senders always
// make progress.
func (b *inbox) send(env Envelope) error {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.closed {
		return fmt.Errorf("runtime: element retired")
	}
	b.ch <- env
	return nil
}

// retire closes the channel after in-flight sends complete. A sender can
// be blocked on a full channel whose owner already exited (teardown of a
// wedged element) — it then holds the read lock forever, so retire drains
// messages while spinning for the write lock to free such senders.
// "Message dropped at teardown" is the correct semantic for anything
// drained here.
func (b *inbox) retire() {
	for !b.mu.TryLock() {
		select {
		case <-b.ch:
		default:
			time.Sleep(100 * time.Microsecond)
		}
	}
	if !b.closed {
		b.closed = true
		close(b.ch)
	}
	b.mu.Unlock()
}

var errTransportClosed = errors.New("runtime: transport closed")

// registry is the name→element table both transports keep. It registers,
// looks up and deregisters names, and on close retires what is left in
// sorted name order, as System.Stop shuts elements down. An element
// retires what it owns: an inbox closes its channel, and a TCP element
// also its listener and the connections to and from it.
type registry[E interface{ retire() }] struct {
	mu     sync.Mutex
	elems  map[string]E
	closed bool
}

// register adds the element open makes for name. open runs under the
// lock, so one name is never opened twice.
func (r *registry[E]) register(name string, open func() (E, error)) (e E, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return e, errTransportClosed
	}
	if _, dup := r.elems[name]; dup {
		return e, fmt.Errorf("runtime: element %q already registered", name)
	}
	if e, err = open(); err != nil {
		return e, err
	}
	if r.elems == nil {
		r.elems = make(map[string]E)
	}
	r.elems[name] = e
	return e, nil
}

// lookup returns the element registered under name.
func (r *registry[E]) lookup(name string) (E, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.elems[name]
	switch {
	case r.closed:
		return e, errTransportClosed
	case !ok:
		return e, fmt.Errorf("runtime: unknown element %q", name)
	}
	return e, nil
}

// deregister removes name and retires its element, freeing the name.
func (r *registry[E]) deregister(name string) error {
	r.mu.Lock()
	e, ok := r.elems[name]
	closed := r.closed
	delete(r.elems, name)
	r.mu.Unlock()
	switch {
	case closed:
		return errTransportClosed
	case !ok:
		return fmt.Errorf("runtime: element %q not registered", name)
	}
	e.retire()
	return nil
}

// close retires every element in sorted name order. Closing twice is a
// no-op.
func (r *registry[E]) close() {
	r.mu.Lock()
	elems := r.elems
	r.elems, r.closed = nil, true
	r.mu.Unlock()
	for _, name := range slices.Sorted(maps.Keys(elems)) {
		elems[name].retire()
	}
}

// ChanTransport is the in-process transport: one buffered channel per
// element.
type ChanTransport struct{ reg registry[*inbox] }

// NewChanTransport returns an empty in-process transport.
func NewChanTransport() *ChanTransport { return &ChanTransport{} }

// Register implements Transport.
func (t *ChanTransport) Register(name string) (<-chan Envelope, error) {
	b, err := t.reg.register(name, func() (*inbox, error) { return newInbox(), nil })
	if err != nil {
		return nil, err
	}
	return b.ch, nil
}

// Send implements Transport.
func (t *ChanTransport) Send(from, to string, msg any) error {
	b, err := t.reg.lookup(to)
	if err != nil {
		return err
	}
	return b.send(Envelope{From: from, Msg: msg})
}

// Deregister implements Transport.
func (t *ChanTransport) Deregister(name string) error { return t.reg.deregister(name) }

// Close implements Transport.
func (t *ChanTransport) Close() error {
	t.reg.close()
	return nil
}

// MessageStats aggregates per-message-type traffic accounting. The
// calibration package regenerates Table 3's Sreq/Srep columns from these
// counters, playing the role of the paper's tcpdump + Ethereal capture.
type MessageStats struct {
	Count int64
	Bytes int64
}

// MeteredTransport wraps a Transport and measures the gob-encoded size of
// every envelope, like a network capture would.
type MeteredTransport struct {
	inner Transport

	mu    sync.Mutex
	stats map[string]*MessageStats // keyed by message type name

	totalBytes atomic.Int64
	totalMsgs  atomic.Int64
}

// NewMeteredTransport wraps inner with traffic metering.
func NewMeteredTransport(inner Transport) *MeteredTransport {
	return &MeteredTransport{inner: inner, stats: make(map[string]*MessageStats)}
}

// Register implements Transport.
func (m *MeteredTransport) Register(name string) (<-chan Envelope, error) {
	return m.inner.Register(name)
}

// Send implements Transport, measuring the wire size of the envelope.
func (m *MeteredTransport) Send(from, to string, msg any) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(Envelope{From: from, Msg: msg}); err != nil {
		return fmt.Errorf("runtime: metering encode: %w", err)
	}
	size := int64(buf.Len())
	key := fmt.Sprintf("%T", msg)
	m.mu.Lock()
	st := m.stats[key]
	if st == nil {
		st = &MessageStats{}
		m.stats[key] = st
	}
	st.Count++
	st.Bytes += size
	m.mu.Unlock()
	m.totalBytes.Add(size)
	m.totalMsgs.Add(1)
	return m.inner.Send(from, to, msg)
}

// Deregister implements Transport.
func (m *MeteredTransport) Deregister(name string) error { return m.inner.Deregister(name) }

// Close implements Transport.
func (m *MeteredTransport) Close() error { return m.inner.Close() }

// Stats returns a copy of the per-type traffic counters.
func (m *MeteredTransport) Stats() map[string]MessageStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]MessageStats, len(m.stats))
	for k, st := range m.stats {
		out[k] = *st
	}
	return out
}

// TotalBytes returns the total metered traffic in bytes.
func (m *MeteredTransport) TotalBytes() int64 { return m.totalBytes.Load() }

// TotalMessages returns the number of metered messages.
func (m *MeteredTransport) TotalMessages() int64 { return m.totalMsgs.Load() }
