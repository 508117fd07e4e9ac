// Package edonkey simulates the hybrid eDonkey network of the paper's
// measurement period: a first tier of servers that index the files
// published by clients and answer search/source/user queries, and a
// second tier of clients that publish their caches, serve browse
// requests, and can be firewalled (low-ID) or have browsing disabled.
//
// All communication runs over the binary wire protocol of
// internal/protocol through an in-memory switchboard (net.Pipe), so the
// crawler's code path — connect, sweep nicknames, filter low IDs, browse
// daily — is the same it would be against real sockets; the examples also
// run it over real TCP loopback connections.
package edonkey

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

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

// Network is an in-memory switchboard: listeners register an endpoint,
// Dial connects a fresh pipe to the handler. It is safe for concurrent
// use.
type Network struct {
	// DialTimeout bounds every exchange on connections of this network
	// (NewNetwork sets DefaultDialTimeout). A hard-coded timeout would
	// distort open-loop load measurements, so tests and harnesses tune
	// it; set it before the first connection is made.
	DialTimeout time.Duration

	mu        sync.Mutex
	listeners map[protocol.Endpoint]ConnHandler
	resolver  func(protocol.Endpoint) (ConnHandler, bool)
}

// NewNetwork returns an empty switchboard.
func NewNetwork() *Network {
	return &Network{
		DialTimeout: DefaultDialTimeout,
		listeners:   make(map[protocol.Endpoint]ConnHandler),
	}
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
func (n *Network) SetResolver(r func(protocol.Endpoint) (ConnHandler, bool)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.resolver = r
}

// Listening reports whether someone accepts connections on ep.
func (n *Network) Listening(ep protocol.Endpoint) bool {
	n.mu.Lock()
	_, ok := n.listeners[ep]
	r := n.resolver
	n.mu.Unlock()
	if !ok && r != nil {
		_, ok = r(ep)
	}
	return ok
}

// Dial connects to an endpoint. The remote handler runs in its own
// goroutine on the other end of the pipe. Explicit listeners win over
// the resolver fallback.
func (n *Network) Dial(ep protocol.Endpoint) (net.Conn, error) {
	n.mu.Lock()
	h, ok := n.listeners[ep]
	r := n.resolver
	n.mu.Unlock()
	if !ok && r != nil {
		h, ok = r(ep)
	}
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrUnreachable, ep)
	}
	local, remote := net.Pipe()
	go h(remote)
	return local, nil
}

// request performs one request-response exchange with a deadline.
func request(conn net.Conn, req protocol.Message, timeout time.Duration) (protocol.Message, error) {
	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return nil, err
	}
	if err := protocol.WriteMessage(conn, req); err != nil {
		return nil, err
	}
	return protocol.ReadMessage(conn)
}

// requestFrame is request without decoding the reply: it returns the
// reply's opcode and payload in scratch (see protocol.ReadFrame).
func requestFrame(conn net.Conn, req protocol.Message, scratch []byte, timeout time.Duration) (op byte, payload, grown []byte, err error) {
	if err := send(conn, req, timeout); err != nil {
		return 0, nil, scratch, err
	}
	return protocol.ReadFrame(conn, scratch)
}

// send writes one message with a deadline and no expected reply.
func send(conn net.Conn, m protocol.Message, timeout time.Duration) error {
	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return err
	}
	return protocol.WriteMessage(conn, m)
}
