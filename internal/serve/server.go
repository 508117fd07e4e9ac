package serve

import (
	"bufio"
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"edonkey/internal/edonkey"
	"edonkey/internal/protocol"
)

// ErrServerClosed is returned by Serve after Shutdown begins draining.
var ErrServerClosed = errors.New("serve: server closed")

// Defaults for the zero-value Config fields.
const (
	DefaultMaxConns     = 4096
	DefaultIdleTimeout  = 60 * time.Second
	DefaultWriteTimeout = 10 * time.Second
)

// Config tunes a Server. The zero value serves with the defaults above.
type Config struct {
	// MaxConns bounds concurrent connections; the accept loop holds a
	// slot before accepting, so excess connections queue in the kernel
	// backlog instead of landing goroutines.
	MaxConns int
	// IdleTimeout bounds how long a connection may sit between requests.
	IdleTimeout time.Duration
	// WriteTimeout bounds each reply flush.
	WriteTimeout time.Duration
	// MaxUserReplies caps SearchUser replies (0 = the measured 200).
	MaxUserReplies int
}

func (c Config) withDefaults() Config {
	if c.MaxConns <= 0 {
		c.MaxConns = DefaultMaxConns
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = DefaultIdleTimeout
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = DefaultWriteTimeout
	}
	if c.MaxUserReplies <= 0 {
		c.MaxUserReplies = edonkey.DefaultMaxUserReplies
	}
	return c
}

// Stats is a point-in-time snapshot of the server's counters.
type Stats struct {
	Accepted uint64 // connections accepted since start
	Active   uint64 // connections currently served
	Queries  uint64 // requests answered (all classes, offers included)

	Logins       uint64
	Offers       uint64
	UserSearches uint64
	FileSearches uint64
	Sources      uint64
	ServerLists  uint64
	Rejects      uint64 // unsupported requests answered with a Reject
}

type counters struct {
	accepted     atomic.Uint64
	active       atomic.Int64
	queries      atomic.Uint64
	logins       atomic.Uint64
	offers       atomic.Uint64
	userSearches atomic.Uint64
	fileSearches atomic.Uint64
	sources      atomic.Uint64
	serverLists  atomic.Uint64
	rejects      atomic.Uint64
}

// Server serves the first-tier protocol over stream connections against
// an epoch-pinned Snapshot. The query path takes no locks and, once a
// connection's buffers have grown to its largest reply, allocates
// nothing: each request is decoded into the session's reused structs,
// loads the current snapshot from an atomic pointer and renders its
// reply through ServerCore.AppendReply into the session's buffer;
// SetSnapshot swaps epochs without pausing anything.
type Server struct {
	cfg  Config
	snap atomic.Pointer[Snapshot]

	// drainFlag is set before Shutdown's deadline pass; request loops
	// check it right after re-arming their idle deadline, so whichever
	// of the two deadline writes lands last, the connection still exits.
	drainFlag atomic.Bool

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	draining bool

	wg  sync.WaitGroup
	sem chan struct{}

	c counters
}

// New returns a Server answering queries from snap.
func New(snap *Snapshot, cfg Config) *Server {
	s := &Server{
		cfg:   cfg.withDefaults(),
		conns: make(map[net.Conn]struct{}),
	}
	s.sem = make(chan struct{}, s.cfg.MaxConns)
	s.snap.Store(snap)
	return s
}

// Snapshot returns the currently served epoch.
func (s *Server) Snapshot() *Snapshot { return s.snap.Load() }

// SetSnapshot publishes a new epoch. In-flight requests finish against
// the epoch they pinned; new requests see the new one immediately.
func (s *Server) SetSnapshot(snap *Snapshot) { s.snap.Store(snap) }

// Stats snapshots the counters.
func (s *Server) Stats() Stats {
	return Stats{
		Accepted:     s.c.accepted.Load(),
		Active:       uint64(max(s.c.active.Load(), 0)),
		Queries:      s.c.queries.Load(),
		Logins:       s.c.logins.Load(),
		Offers:       s.c.offers.Load(),
		UserSearches: s.c.userSearches.Load(),
		FileSearches: s.c.fileSearches.Load(),
		Sources:      s.c.sources.Load(),
		ServerLists:  s.c.serverLists.Load(),
		Rejects:      s.c.rejects.Load(),
	}
}

// Serve accepts connections on ln until Shutdown. Each connection gets
// a goroutine; a connection-limit slot is held before every accept so
// at most MaxConns are ever in flight.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		s.sem <- struct{}{}
		conn, err := ln.Accept()
		if err != nil {
			<-s.sem
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining {
				return ErrServerClosed
			}
			return err
		}
		s.c.accepted.Add(1)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() { <-s.sem }()
			s.ServeConn(conn)
		}()
	}
}

// Shutdown drains the server: the listener stops accepting, and every
// tracked connection gets a read deadline in the past, so requests
// already read finish and flush their replies while idle connections
// unblock and close. If ctx expires before the drain completes, the
// remaining connections are closed outright. Shutdown returns nil on a
// clean drain and ctx.Err() after a forced one.
func (s *Server) Shutdown(ctx context.Context) error {
	s.drainFlag.Store(true)
	s.mu.Lock()
	s.draining = true
	ln := s.ln
	past := time.Unix(1, 0)
	for c := range s.conns {
		c.SetReadDeadline(past)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		s.wg.Wait()
		return ctx.Err()
	}
}

// track registers a connection for drain management; it reports false
// when the server is already draining (the connection should close).
func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// session is one connection's reusable state: the server-role request
// decoder (fixed scratch, reused request structs), the protocol core
// with its reply renderer, the login reply and the reply buffer. A
// request borrows all of it and allocates nothing.
type session struct {
	dec   protocol.RequestDecoder
	core  protocol.ServerCore
	id    protocol.IDChange
	reply []byte
}

var rejectUnsupported = &protocol.Reject{Reason: "unsupported request"}

// ServeConn answers requests on one connection until it errors, idles
// out or the server drains. It is exported so tests can drive the exact
// production request loop over an in-process pipe (net.Pipe, memconn)
// and pin its bytes against the TCP path.
func (s *Server) ServeConn(conn net.Conn) {
	defer conn.Close()
	if !s.track(conn) {
		return
	}
	defer s.untrack(conn)
	s.c.active.Add(1)
	defer s.c.active.Add(-1)
	br := bufio.NewReaderSize(conn, 16<<10)
	bw := bufio.NewWriterSize(conn, 32<<10)
	sess := &session{core: protocol.ServerCore{
		MaxUserReplies:     s.cfg.MaxUserReplies,
		SupportsUserSearch: true,
	}}
	for {
		conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
		if s.drainFlag.Load() {
			bw.Flush()
			return
		}
		m, err := sess.dec.Read(br)
		if err != nil {
			return
		}
		sess.reply = s.appendReply(sess, sess.reply[:0], m)
		if len(sess.reply) > 0 {
			if _, err := bw.Write(sess.reply); err != nil {
				return
			}
		}
		// Coalesce: a pipelined burst already buffered on the read side
		// batches its replies into one flush; the last reply of the
		// burst (or a lone request) flushes immediately.
		if br.Buffered() == 0 {
			conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
			if err := bw.Flush(); err != nil {
				return
			}
		}
	}
}

// appendReply renders the reply frame for one request into dst (empty
// for fire-and-forget requests) and bumps the class counters.
func (s *Server) appendReply(sess *session, dst []byte, m protocol.Message) []byte {
	s.c.queries.Add(1)
	switch req := m.(type) {
	case *protocol.LoginRequest:
		s.c.logins.Add(1)
		sess.id.ClientID = protocol.HighID(req.Endpoint.IP)
		out, _ := protocol.AppendMessage(dst, &sess.id)
		return out
	case *protocol.OfferFiles:
		s.c.offers.Add(1)
		return dst // accepted silently, like the original protocol
	}
	sess.core.Dir = s.snap.Load()
	out, handled := sess.core.AppendReply(dst, m)
	if !handled {
		s.c.rejects.Add(1)
		out, _ = protocol.AppendMessage(dst, rejectUnsupported)
		return out
	}
	switch m.(type) {
	case *protocol.SearchUser:
		s.c.userSearches.Add(1)
	case *protocol.SearchRequest:
		s.c.fileSearches.Add(1)
	case *protocol.GetSources:
		s.c.sources.Add(1)
	case *protocol.GetServerList:
		s.c.serverLists.Add(1)
	}
	return out
}
