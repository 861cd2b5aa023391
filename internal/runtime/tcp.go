package runtime

import (
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"sync"
)

// TCPTransport delivers envelopes over loopback TCP with gob encoding: the
// closest stdlib-only analog of DIET's CORBA transport. It keeps the same
// registry as the channel transport; each element adds a loopback listener
// that fans accepted connections into its inbox. Every sender keeps its own
// connection to each destination, dialed on first use, so senders to one
// element encode and are decoded in parallel. Retiring an element closes
// the connections to it and those it dialed.
type TCPTransport struct {
	reg   registry[*tcpElem]
	mu    sync.Mutex
	conns map[tcpRoute]*tcpConn // guarded by mu
}

// tcpRoute names one connection: a sender and the element it dials.
type tcpRoute struct {
	from string
	to   *tcpElem
}

// tcpElem is one registered element: its inbox and its listener.
type tcpElem struct {
	t       *TCPTransport
	name    string
	box     *inbox
	ln      net.Listener
	wg      sync.WaitGroup // the accept loop and its decoders
	retired bool           // guarded by t.mu
}

// tcpConn is the sending end of one connection; mu serialises encodes.
type tcpConn struct {
	mu   sync.Mutex
	conn net.Conn
	enc  *gob.Encoder
}

// NewTCPTransport returns an empty loopback TCP transport.
func NewTCPTransport() *TCPTransport { return &TCPTransport{} }

// Register implements Transport: it opens a loopback listener for the
// element and fans accepted connections into its inbox.
func (t *TCPTransport) Register(name string) (<-chan Envelope, error) {
	e, err := t.reg.register(name, func() (*tcpElem, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("runtime: listen for %q: %w", name, err)
		}
		e := &tcpElem{t: t, name: name, box: newInbox(), ln: ln}
		e.wg.Add(1)
		go e.accept()
		return e, nil
	})
	if err != nil {
		return nil, err
	}
	return e.box.ch, nil
}

func (e *tcpElem) accept() {
	defer e.wg.Done()
	for {
		conn, err := e.ln.Accept()
		if err != nil {
			return // listener closed
		}
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			defer conn.Close()
			dec := gob.NewDecoder(conn)
			for {
				var env Envelope
				if err := dec.Decode(&env); err != nil {
					return
				}
				// A send error means the box retired mid-decode; dropping
				// the message is the teardown semantic.
				_ = e.box.send(env)
			}
		}()
	}
}

// Send implements Transport over the sender's connection to the
// destination.
func (t *TCPTransport) Send(from, to string, msg any) error {
	e, err := t.reg.lookup(to)
	if err != nil {
		return err
	}
	c, err := t.connect(tcpRoute{from: from, to: e})
	if err != nil {
		return fmt.Errorf("runtime: dial %q: %w", to, err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.enc.Encode(Envelope{From: from, Msg: msg}); err != nil {
		return fmt.Errorf("runtime: send to %q: %w", to, err)
	}
	return nil
}

// connect returns the route's connection, dialing it on first use.
func (t *TCPTransport) connect(r tcpRoute) (*tcpConn, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if c := t.conns[r]; c != nil {
		return c, nil
	}
	if r.to.retired {
		return nil, errors.New("runtime: element retired")
	}
	conn, err := net.Dial("tcp", r.to.ln.Addr().String())
	if err != nil {
		return nil, err
	}
	if t.conns == nil {
		t.conns = make(map[tcpRoute]*tcpConn)
	}
	c := &tcpConn{conn: conn, enc: gob.NewEncoder(conn)}
	t.conns[r] = c
	return c, nil
}

// retire closes the listener and every connection to or from the element,
// which ends the accept loop and the decoders on both ends, retires the
// inbox, and waits for the element's goroutines.
func (e *tcpElem) retire() {
	e.ln.Close()
	e.t.mu.Lock()
	e.retired = true
	for r, c := range e.t.conns {
		if r.to == e || r.from == e.name {
			c.conn.Close()
			delete(e.t.conns, r)
		}
	}
	e.t.mu.Unlock()
	e.box.retire()
	e.wg.Wait()
}

// Deregister implements Transport: it retires the element, freeing the
// name for reuse.
func (t *TCPTransport) Deregister(name string) error { return t.reg.deregister(name) }

// Close implements Transport.
func (t *TCPTransport) Close() error {
	t.reg.close()
	return nil
}
