// Package edonkey simulates the hybrid eDonkey network of the paper's
// measurement period: a first tier of servers that index the files
// published by clients and answer search/source/user queries, and a
// second tier of clients that publish their caches, serve browse
// requests, and can be firewalled (low-ID) or have browsing disabled.
//
// All communication runs over the binary wire protocol of
// internal/protocol through an in-memory switchboard whose connections
// are memconn pipes: synchronous like net.Pipe, with every deadline
// honoured, but one heap object a dial and no timer unless a call
// actually sleeps under a deadline — a crawl makes them by the hundred
// thousand. The crawler's code path — connect, sweep nicknames, filter
// low IDs, browse daily — is the same it would be against real sockets;
// the examples also run it over real TCP loopback connections.
package edonkey

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"edonkey/internal/memconn"
	"edonkey/internal/protocol"
)

// DefaultDialTimeout is the default bound on connection attempts and
// request-response exchanges; override per network via
// Network.DialTimeout.
const DefaultDialTimeout = 5 * time.Second

// ErrUnreachable is returned when dialing an endpoint nobody listens on —
// the fate of every connection attempt to a firewalled client.
var ErrUnreachable = errors.New("edonkey: endpoint unreachable")

// ConnHandler serves one accepted connection and returns when done.
type ConnHandler func(conn net.Conn)

// Resolver answers for endpoints nobody registered with Listen (see
// SetResolver). Resolve reports whether ep is served and, if it is, a
// handle of the resolver's own choosing; ServeConn serves one accepted
// connection to the endpoint that handle was given for and returns when
// done. Two methods and an integer rather than a function returning a
// ConnHandler, so that resolving a dial allocates nothing.
type Resolver interface {
	Resolve(ep protocol.Endpoint) (handle int, ok bool)
	ServeConn(handle int, conn net.Conn)
}

// Network is an in-memory switchboard: listeners register an endpoint,
// Dial connects a fresh pipe to the handler. It is safe for concurrent
// use.
type Network struct {
	// DialTimeout bounds every exchange on connections of this network
	// (NewNetwork sets DefaultDialTimeout). A hard-coded timeout would
	// distort open-loop load measurements, so tests and harnesses tune
	// it; zero or less lifts the bound. Set it before the first
	// connection is made.
	DialTimeout time.Duration

	mu        sync.Mutex
	listeners map[protocol.Endpoint]ConnHandler
	resolver  Resolver

	// accepted holds the far ends of dialled connections until their
	// goroutine picks them up: Dial pushes one and starts serveNext,
	// which pops one. Started through a func value made once, the
	// goroutine costs no closure over (handler, conn) per dial.
	accepted    []accepted
	serveNextFn func()
}

// accepted is one dialled connection waiting for its goroutine: for a
// listener's, h is set; for a resolver's, r and handle.
type accepted struct {
	h      ConnHandler
	r      Resolver
	handle int
	conn   net.Conn
}

// NewNetwork returns an empty switchboard.
func NewNetwork() *Network {
	n := &Network{
		DialTimeout: DefaultDialTimeout,
		listeners:   make(map[protocol.Endpoint]ConnHandler),
	}
	n.serveNextFn = n.serveNext
	return n
}

// Listen registers a handler for an endpoint. It fails if the endpoint is
// taken.
func (n *Network) Listen(ep protocol.Endpoint, h ConnHandler) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, busy := n.listeners[ep]; busy {
		return fmt.Errorf("edonkey: endpoint %v already in use", ep)
	}
	n.listeners[ep] = h
	return nil
}

// Unlisten removes an endpoint registration (a client going offline).
func (n *Network) Unlisten(ep protocol.Endpoint) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.listeners, ep)
}

// SetResolver installs a fallback consulted by Dial (and Listening) for
// endpoints with no explicitly registered listener. It lets one gateway
// serve an entire population's endpoints without registering — or even
// representing — each client individually; a million-peer world answers
// browse dials through a single resolver over its columns. The resolver
// must be safe for concurrent use; a nil resolver removes the fallback.
func (n *Network) SetResolver(r Resolver) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.resolver = r
}

// lookup finds who serves ep: an explicit listener first, then the
// resolver fallback.
func (n *Network) lookup(ep protocol.Endpoint) (a accepted, ok bool) {
	n.mu.Lock()
	a.h, ok = n.listeners[ep]
	r := n.resolver
	n.mu.Unlock()
	if !ok && r != nil {
		a.r = r
		a.handle, ok = r.Resolve(ep)
	}
	return a, ok
}

// Listening reports whether someone accepts connections on ep.
func (n *Network) Listening(ep protocol.Endpoint) bool {
	_, ok := n.lookup(ep)
	return ok
}

// Dial connects to an endpoint. The remote handler runs in its own
// goroutine on the other end of the pipe, for as long as it takes it to
// notice the dialler's Close. Explicit listeners win over the resolver
// fallback.
func (n *Network) Dial(ep protocol.Endpoint) (net.Conn, error) {
	a, ok := n.lookup(ep)
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrUnreachable, ep)
	}
	local, remote := memconn.Pipe()
	a.conn = remote
	n.mu.Lock()
	n.accepted = append(n.accepted, a)
	n.mu.Unlock()
	go n.serveNextFn()
	return local, nil
}

// serveNext is the body of every handler goroutine: one is started per
// push and each pops one, whichever that is.
func (n *Network) serveNext() {
	n.mu.Lock()
	last := len(n.accepted) - 1
	a := n.accepted[last]
	n.accepted[last] = accepted{}
	n.accepted = n.accepted[:last]
	n.mu.Unlock()
	if a.h != nil {
		a.h(a.conn)
	} else {
		a.r.ServeConn(a.handle, a.conn)
	}
}

// SetExchangeDeadline bounds the next exchange on conn: it must finish
// within timeout from now. A timeout of zero or less lifts the bound.
func SetExchangeDeadline(conn net.Conn, timeout time.Duration) error {
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	return conn.SetDeadline(deadline)
}

// request performs one request-response exchange with a deadline.
func request(conn net.Conn, req protocol.Message, timeout time.Duration) (protocol.Message, error) {
	if err := send(conn, req, timeout); err != nil {
		return nil, err
	}
	return protocol.ReadMessage(conn)
}

// requestFrame is request for a caller that holds its request encoded
// and wants the reply undecoded: it appends the reply's payload to dst
// and returns its opcode (see protocol.AppendFrame).
func requestFrame(conn net.Conn, req, dst []byte, timeout time.Duration) (op byte, out []byte, err error) {
	if err := sendFrame(conn, req, timeout); err != nil {
		return 0, dst, err
	}
	return protocol.AppendFrame(conn, dst)
}

// sendFrame is send for a caller that holds its message encoded.
func sendFrame(conn net.Conn, frame []byte, timeout time.Duration) error {
	if err := SetExchangeDeadline(conn, timeout); err != nil {
		return err
	}
	_, err := conn.Write(frame)
	return err
}

// send writes one message with a deadline and no expected reply.
func send(conn net.Conn, m protocol.Message, timeout time.Duration) error {
	if err := SetExchangeDeadline(conn, timeout); err != nil {
		return err
	}
	return protocol.WriteMessage(conn, m)
}
