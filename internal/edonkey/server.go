package edonkey

import (
	"bytes"
	"net"
	"slices"
	"strings"
	"sync"

	"edonkey/internal/protocol"
)

// DefaultMaxUserReplies is the server-side cap on user-search replies the
// paper reports (200 users per query), the reason its crawler had to
// sweep 26^3 nickname prefixes.
const DefaultMaxUserReplies = 200

// userRecord is one logged-in client.
type userRecord struct {
	hash     [16]byte
	clientID uint32
	endpoint protocol.Endpoint
	nickname string
}

// fileRecord indexes one published file and its sources.
type fileRecord struct {
	entry   protocol.FileEntry
	sources map[[16]byte]protocol.Endpoint
}

// Server is a first-tier eDonkey server: it indexes client publications
// and answers source, keyword and user queries through a
// protocol.ServerCore over its map-backed state. All methods are safe
// for concurrent use; each connection is served on its own goroutine.
type Server struct {
	Endpoint protocol.Endpoint
	// MaxUserReplies caps SearchUser replies (default 200, as measured).
	MaxUserReplies int
	// SupportsUserSearch mirrors the paper's observation that newer
	// servers removed the query-users feature; when false, SearchUser
	// gets a Reject.
	SupportsUserSearch bool

	net *Network

	mu      sync.RWMutex
	nextID  uint32
	users   map[[16]byte]*userRecord
	files   map[[16]byte]*fileRecord
	keyword map[string]map[[16]byte]struct{} // token -> file hashes
	servers map[protocol.Endpoint]struct{}   // known servers (incl. self)
}

// core builds the request engine view of the server's current settings.
func (s *Server) core() *protocol.ServerCore {
	return &protocol.ServerCore{
		Dir:                (*serverDirectory)(s),
		MaxUserReplies:     s.MaxUserReplies,
		SupportsUserSearch: s.SupportsUserSearch,
	}
}

// serverDirectory adapts the server's publication maps to the
// protocol.Directory the shared request engine consults. Enumeration
// order for user searches is Go map order — the boxed server keeps the
// arbitrary-truncation behaviour real servers had; the columnar world
// gateway is the deterministic implementation. Queries take the read
// lock only, so concurrent sessions answer in parallel and serialize
// just against logins and publications; the serve package's snapshot
// directory is the fully lock-free implementation.
type serverDirectory Server

func (d *serverDirectory) ForEachServer(yield func(protocol.Endpoint) bool) {
	d.mu.RLock()
	out := make([]protocol.Endpoint, 0, len(d.servers))
	for ep := range d.servers {
		out = append(out, ep)
	}
	d.mu.RUnlock()
	slices.SortFunc(out, protocol.Endpoint.Compare)
	for _, ep := range out {
		if !yield(ep) {
			return
		}
	}
}

func (d *serverDirectory) UsersWithPrefix(prefix string, yield func(protocol.UserEntry) bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	for _, u := range d.users {
		if !strings.HasPrefix(strings.ToLower(u.nickname), prefix) {
			continue
		}
		if !yield(protocol.UserEntry{
			Hash:     u.hash,
			ClientID: u.clientID,
			Endpoint: u.endpoint,
			Nickname: u.nickname,
		}) {
			return
		}
	}
}

// ForEachSource and ForEachFile sort their map-backed postings into
// reply order under the read lock and visit them after releasing it.
func (d *serverDirectory) ForEachSource(hash [16]byte, yield func(protocol.Endpoint) bool) {
	d.mu.RLock()
	var out []protocol.Endpoint
	if rec, ok := d.files[hash]; ok {
		for _, ep := range rec.sources {
			out = append(out, ep)
		}
	}
	d.mu.RUnlock()
	slices.SortFunc(out, protocol.Endpoint.Compare)
	for _, ep := range out {
		if !yield(ep) {
			return
		}
	}
}

func (d *serverDirectory) ForEachFile(keyword string, yield func(protocol.FileEntry) bool) {
	d.mu.RLock()
	var out []protocol.FileEntry
	for h := range d.keyword[keyword] {
		rec := d.files[h]
		entry := rec.entry
		entry.Availability = uint32(len(rec.sources))
		out = append(out, entry)
	}
	d.mu.RUnlock()
	slices.SortFunc(out, func(a, b protocol.FileEntry) int {
		return bytes.Compare(a.Hash[:], b.Hash[:])
	})
	for _, f := range out {
		if !yield(f) {
			return
		}
	}
}

// NewServer creates a server on the given endpoint of the switchboard.
func NewServer(n *Network, ep protocol.Endpoint) *Server {
	s := &Server{
		Endpoint:           ep,
		MaxUserReplies:     DefaultMaxUserReplies,
		SupportsUserSearch: true,
		net:                n,
		nextID:             protocol.LowIDThreshold,
		users:              make(map[[16]byte]*userRecord),
		files:              make(map[[16]byte]*fileRecord),
		keyword:            make(map[string]map[[16]byte]struct{}),
		servers:            map[protocol.Endpoint]struct{}{ep: {}},
	}
	return s
}

// Start registers the server on the network.
func (s *Server) Start() error { return s.net.Listen(s.Endpoint, s.Serve) }

// Stop removes the server from the network.
func (s *Server) Stop() { s.net.Unlisten(s.Endpoint) }

// AddKnownServer records another server for server-list replies — the
// only data real eDonkey servers exchanged.
func (s *Server) AddKnownServer(ep protocol.Endpoint) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.servers[ep] = struct{}{}
}

// Stats returns the current user and distinct-file counts.
func (s *Server) Stats() (users, files int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.users), len(s.files)
}

// DisconnectAll drops every user registration (e.g. at a day boundary,
// when presence is re-established).
func (s *Server) DisconnectAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.users = make(map[[16]byte]*userRecord)
	s.files = make(map[[16]byte]*fileRecord)
	s.keyword = make(map[string]map[[16]byte]struct{})
}

// Serve handles one client connection until it closes. Session state
// (login, publications) is handled here; queries route through the
// shared protocol.ServerCore request engine, every reply rendered into
// the session's one buffer.
func (s *Server) Serve(conn net.Conn) {
	defer conn.Close()
	core := s.core()
	var sessionUser *userRecord
	var reply []byte
	for {
		m, err := protocol.ReadMessage(conn)
		if err != nil {
			return // EOF or peer error: session over
		}
		switch req := m.(type) {
		case *protocol.LoginRequest:
			var idChange protocol.Message
			sessionUser, idChange = s.handleLogin(req)
			reply, _ = protocol.AppendMessage(reply[:0], idChange)
		case *protocol.OfferFiles:
			s.handleOffer(sessionUser, req)
			continue // no reply, like the original protocol
		default:
			var handled bool
			if reply, handled = core.AppendReply(reply[:0], m); !handled {
				reply, _ = protocol.AppendMessage(reply[:0], rejectUnsupported)
			}
		}
		if err := sendFrame(conn, reply, s.net.DialTimeout); err != nil {
			return
		}
	}
}

var rejectUnsupported = &protocol.Reject{Reason: "unsupported request"}

// handleLogin registers the user and assigns a client ID. Reachability is
// checked with a callback probe, as real servers did: unreachable clients
// get a low ID.
func (s *Server) handleLogin(req *protocol.LoginRequest) (*userRecord, protocol.Message) {
	highID := false
	if probe, err := s.net.Dial(req.Endpoint); err == nil {
		probe.Close()
		highID = true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	u, ok := s.users[req.UserHash]
	if !ok {
		u = &userRecord{hash: req.UserHash}
		s.users[req.UserHash] = u
	}
	u.endpoint = req.Endpoint
	u.nickname = req.Nickname
	if highID {
		// High IDs encode the address, loosely like the original.
		u.clientID = protocol.HighID(req.Endpoint.IP)
	} else {
		s.nextID--
		if s.nextID == 0 {
			s.nextID = protocol.LowIDThreshold - 1
		}
		u.clientID = s.nextID % protocol.LowIDThreshold
		if u.clientID == 0 {
			u.clientID = 1
		}
	}
	return u, &protocol.IDChange{ClientID: u.clientID}
}

func (s *Server) handleOffer(u *userRecord, req *protocol.OfferFiles) {
	if u == nil {
		return // publications require a login
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, f := range req.Files {
		rec, ok := s.files[f.Hash]
		if !ok {
			rec = &fileRecord{entry: f, sources: make(map[[16]byte]protocol.Endpoint)}
			s.files[f.Hash] = rec
			for _, tok := range protocol.Tokenize(f.Name) {
				set := s.keyword[tok]
				if set == nil {
					set = make(map[[16]byte]struct{})
					s.keyword[tok] = set
				}
				set[f.Hash] = struct{}{}
			}
		}
		rec.sources[u.hash] = u.endpoint
	}
}
