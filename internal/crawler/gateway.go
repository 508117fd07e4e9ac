package crawler

import (
	"bufio"
	"io"
	"net"
	"slices"
	"sort"
	"strings"
	"sync"

	"edonkey/internal/edonkey"
	"edonkey/internal/protocol"
	"edonkey/internal/workload"
)

// worldGateway puts an entire columnar world on the wire without boxing
// it. The legacy crawl path materialized one edonkey.Client per online
// world client every day — a goroutine-backed listener, a login
// round-trip and a fully rendered file list each, which is what capped
// edcrawl far below the population sizes the trace layer can ingest. The
// gateway replaces all of that with two views over the world's columns:
//
//   - the server view: a protocol.ServerCore whose Directory enumerates
//     online clients straight from the packed nickname/identity/flag
//     columns (one static nickname-sorted permutation, binary-searched
//     per query), with the legacy login-probe reachability semantics
//     (including endpoint-collision losers) replayed from one
//     deterministic pass per day;
//   - the client view: the Network's Resolver, which answers Browse dials
//     for any online client's endpoint by rendering that client's cache
//     span on the fly.
//
// The crawler still learns everything through wire messages — the same
// frames, caps, rejects and unreachable errors — but the per-day cost is
// proportional to what the crawler touches, not to the population.
//
// Unlike the boxed server, whose user-search truncation order was Go map
// order, the gateway's enumeration order is fully deterministic
// (nickname-sorted, client index breaking ties), so capped million-peer
// crawls are bit-identical for any worker count.
type worldGateway struct {
	w   *workload.World
	net *edonkey.Network

	// maxUserReplies is the served reply cap (DefaultMaxUserReplies;
	// tests lower it to exercise deterministic truncation at small scale).
	maxUserReplies int

	// nickOrder is the static nickname-sorted client permutation behind
	// prefix queries; nicknames never change, so it is built once.
	nickOrder []int32

	// Per-day state, rebuilt by beginDay.
	day           int
	epOwner       map[protocol.Endpoint]int32
	participating []bool // logged in today (online and not a collision loser)
	reachable     []bool // would probe high-ID today
	browsable     map[identityKey]struct{}

	mu       sync.Mutex
	sessions []protocol.UserEntry // wire logins (the crawler itself)

	// handlers recycles what a connection is served with.
	handlers sync.Pool // of *handler
}

// handler is what one served connection is read and answered through:
// the server-role decoder with its per-opcode payload caps, the buffered
// reader it reads from, and the fixed chunk every reply is rendered
// into — a browse answer of any length passes through it a chunk at a
// time. A handler goroutine borrows one for its lifetime. A memconn
// Write returns once the dialler has read it all, but the goroutine may
// then wait behind the next dials before it runs again and sees the
// hang-up, so a crawl holds many handlers at once: none may grow with
// the answers it has sent.
type handler struct {
	dec   protocol.RequestDecoder
	br    *bufio.Reader
	chunk [writeChunk]byte
}

// requestBuffer holds any request but a publication whole, and those are
// skipped through it.
const requestBuffer = 1 << 10

// writeChunk is the capacity replies are rendered into. A browse entry
// is at most FileEntrySize(64, "document") = 114 bytes (the longest
// synthesized name and kind), so a chunk holds seventy of the largest.
const writeChunk = 8 << 10

func newWorldGateway(w *workload.World, n *edonkey.Network) (*worldGateway, error) {
	g := &worldGateway{w: w, net: n, maxUserReplies: edonkey.DefaultMaxUserReplies}
	g.handlers.New = func() any { return &handler{br: bufio.NewReaderSize(nil, requestBuffer)} }
	g.buildNickOrder()
	if err := n.Listen(serverEndpoint, g.serveServer); err != nil {
		return nil, err
	}
	n.SetResolver(g)
	return g, nil
}

func (g *worldGateway) borrowHandler(conn net.Conn) *handler {
	h := g.handlers.Get().(*handler)
	h.br.Reset(conn)
	return h
}

func (g *worldGateway) returnHandler(h *handler) {
	h.br.Reset(nil)
	g.handlers.Put(h)
}

func (g *worldGateway) core() *protocol.ServerCore {
	return &protocol.ServerCore{
		Dir:                g,
		MaxUserReplies:     g.maxUserReplies,
		SupportsUserSearch: true,
	}
}

// buildNickOrder sorts the client indices by nickname (index breaking
// ties; nicknames embed the index, so ties cannot actually occur). The
// strings are materialized once for the sort, then dropped: steady state
// keeps only the permutation.
func (g *worldGateway) buildNickOrder() {
	n := g.w.NumClients()
	names := make([]string, n)
	g.nickOrder = make([]int32, n)
	for i := 0; i < n; i++ {
		names[i] = g.w.Nickname(i)
		g.nickOrder[i] = int32(i)
	}
	slices.SortFunc(g.nickOrder, func(a, b int32) int {
		if c := strings.Compare(names[a], names[b]); c != 0 {
			return c
		}
		return int(a - b)
	})
}

// beginDay re-derives the day's server-side state from the world
// columns — who is logged in, who probes reachable and who owns a
// contested endpoint — from one replay of the day's login sequence
// (workload.World.ReplayLogins has the rules).
func (g *worldGateway) beginDay(day int) {
	w := g.w
	g.day = day
	if g.participating == nil {
		g.participating = make([]bool, w.NumClients())
		g.reachable = make([]bool, w.NumClients())
	}
	clear(g.participating)
	clear(g.reachable)
	g.epOwner = make(map[protocol.Endpoint]int32, w.OnlineCount())
	g.browsable = make(map[identityKey]struct{}, w.OnlineCount())
	g.mu.Lock()
	g.sessions = nil // day boundary: every wire session re-logs
	g.mu.Unlock()
	w.ReplayLogins(day, func(i int, ip uint32, hash [16]byte, reachable bool) {
		g.participating[i] = true
		g.reachable[i] = reachable
		if w.Firewalled(i) {
			return // logged in, listening nowhere
		}
		g.epOwner[protocol.Endpoint{IP: ip, Port: workload.ClientPort(i)}] = int32(i)
		if w.BrowseOK(i) {
			g.browsable[identityKey{hash, ip}] = struct{}{}
		}
	})
}

// wasBrowsable reports whether the identity belonged to a client that
// accepted browsing today (the crawler's stats classification).
func (g *worldGateway) wasBrowsable(key identityKey) bool {
	_, ok := g.browsable[key]
	return ok
}

// --- protocol.Directory over the world columns ---------------------------

func (g *worldGateway) ForEachServer(yield func(protocol.Endpoint) bool) {
	yield(serverEndpoint)
}

func (g *worldGateway) userEntry(i int) protocol.UserEntry {
	ip, hash := g.w.IdentityAt(i, g.day)
	id := uint32(1) // low ID
	if g.reachable[i] {
		id = protocol.HighID(ip)
	}
	return protocol.UserEntry{
		Hash:     hash,
		ClientID: id,
		Endpoint: protocol.Endpoint{IP: ip, Port: workload.ClientPort(i)},
		Nickname: g.w.Nickname(i),
	}
}

func (g *worldGateway) UsersWithPrefix(prefix string, yield func(protocol.UserEntry) bool) {
	// Nicknames are lowercase letters, digits and '_', all below '{', so
	// the prefix bucket is the contiguous range [prefix, prefix+"{").
	// Each probe renders its nickname into nick instead of a string.
	var nick [32]byte
	end := prefix + "{"
	lo := sort.Search(len(g.nickOrder), func(k int) bool {
		return string(g.w.AppendNickname(nick[:0], int(g.nickOrder[k]))) >= prefix
	})
	hi := sort.Search(len(g.nickOrder), func(k int) bool {
		return string(g.w.AppendNickname(nick[:0], int(g.nickOrder[k]))) >= end
	})
	for k := lo; k < hi; k++ {
		i := int(g.nickOrder[k])
		if !g.participating[i] {
			continue
		}
		if !yield(g.userEntry(i)) {
			return
		}
	}
	// Wire sessions (the crawler's own login) are enumerated after the
	// population, like any other logged-in user.
	g.mu.Lock()
	sessions := g.sessions
	g.mu.Unlock()
	for _, u := range sessions {
		if strings.HasPrefix(strings.ToLower(u.Nickname), prefix) {
			if !yield(u) {
				return
			}
		}
	}
}

// Nothing is published to the gateway — the crawler, its only caller,
// never offers files and never asks for sources or keywords — so it
// answers both queries like an index nobody published to. The world-
// backed index is served where it is asked for: serve.SnapshotFromWorld.
func (g *worldGateway) ForEachSource([16]byte, func(protocol.Endpoint) bool) {}

func (g *worldGateway) ForEachFile(string, func(protocol.FileEntry) bool) {}

// --- wire handlers --------------------------------------------------------

// gwWrite puts one rendered frame on the wire.
func (g *worldGateway) gwWrite(conn net.Conn, frame []byte) error {
	if err := edonkey.SetExchangeDeadline(conn, g.net.DialTimeout); err != nil {
		return err
	}
	_, err := conn.Write(frame)
	return err
}

var rejectUnsupported = &protocol.Reject{Reason: "unsupported request"}

// serveServer answers one connection to the first-tier server endpoint.
// It reads what a server reads and nothing else: a frame that is not a
// request, or is larger than its kind can be, ends the session.
func (g *worldGateway) serveServer(conn net.Conn) {
	defer conn.Close()
	h := g.borrowHandler(conn)
	defer g.returnHandler(h)
	core := g.core()
	var reply []byte
	for {
		m, err := h.dec.Read(h.br)
		if err != nil {
			return
		}
		switch req := m.(type) {
		case *protocol.LoginRequest:
			reply, _ = protocol.AppendMessage(reply[:0], g.handleLogin(req))
		case *protocol.OfferFiles:
			continue // accepted silently, like the original protocol
		default:
			var handled bool
			if reply, handled = core.AppendReply(reply[:0], m); !handled {
				reply, _ = protocol.AppendMessage(reply[:0], rejectUnsupported)
			}
		}
		if err := g.gwWrite(conn, reply); err != nil {
			return
		}
	}
}

// handleLogin registers a wire session (in a crawl: the crawler itself)
// with the legacy probe semantics: reachable endpoints get an IP-derived
// high ID. req is the decoder's and lives until its next read; the
// session keeps its own copy of the nickname.
func (g *worldGateway) handleLogin(req *protocol.LoginRequest) protocol.Message {
	id := uint32(1)
	if g.net.Listening(req.Endpoint) {
		id = protocol.HighID(req.Endpoint.IP)
	}
	g.mu.Lock()
	g.sessions = append(g.sessions, protocol.UserEntry{
		Hash:     req.UserHash,
		ClientID: id,
		Endpoint: req.Endpoint,
		Nickname: strings.Clone(req.Nickname),
	})
	g.mu.Unlock()
	return &protocol.IDChange{ClientID: id}
}

// Resolve makes the gateway the Network's fallback: it owns every
// claimed client endpoint of the day, and the handle it answers with is
// the owner's client index.
func (g *worldGateway) Resolve(ep protocol.Endpoint) (int, bool) {
	owner, ok := g.epOwner[ep]
	return int(owner), ok
}

var (
	rejectBrowse   = &protocol.Reject{Reason: "browsing disabled"}
	rejectRequest  = &protocol.Reject{Reason: "unsupported"}
	rejectTooLarge = &protocol.Reject{Reason: "answer too large"}
)

// ServeConn answers one client-client session (handshake, browse) for
// world client i, straight from its columns.
func (g *worldGateway) ServeConn(i int, conn net.Conn) {
	defer conn.Close()
	h := g.borrowHandler(conn)
	defer g.returnHandler(h)
	for {
		m, err := h.dec.Read(h.br)
		if err != nil {
			return
		}
		if err := edonkey.SetExchangeDeadline(conn, g.net.DialTimeout); err != nil {
			return
		}
		switch m.(type) {
		case *protocol.Hello:
			_, hash := g.w.IdentityAt(i, g.day)
			var nick [32]byte
			_, err = conn.Write(protocol.AppendHelloAnswer(h.chunk[:0], hash, g.w.AppendNickname(nick[:0], i)))
		case *protocol.AskSharedFiles:
			if g.w.BrowseOK(i) {
				err = g.writeSharedFiles(conn, h, i)
			} else {
				_, err = conn.Write(h.frame(rejectBrowse))
			}
		default:
			_, err = conn.Write(h.frame(rejectRequest))
		}
		if err != nil {
			return
		}
	}
}

// frame renders a small message into the handler's chunk.
func (h *handler) frame(m protocol.Message) []byte {
	frame, _ := protocol.AppendMessage(h.chunk[:0], m)
	return frame
}

// writeSharedFiles streams client i's browse answer from the columns to
// w through the handler's chunk: one pass sums the entries' sizes, which
// the frame announces first, and a second renders them, each name
// synthesized into a stack buffer — no FileEntry, no string, and nothing
// that grows with the cache. An answer too large to frame gets a Reject
// at once, not a silence the dialler would wait out.
func (g *worldGateway) writeSharedFiles(w io.Writer, h *handler, i int) error {
	files, _ := g.w.CacheView(i)
	size := 0
	for _, fi := range files {
		size += protocol.FileEntrySize(g.w.FileNameLen(int(fi)), g.w.FileKind(int(fi)).String())
	}
	var stream protocol.FileStream
	if err := stream.Begin(w, h.chunk[:0], protocol.OpSharedFilesAnswer, len(files), size); err != nil {
		_, err = w.Write(h.frame(rejectTooLarge))
		return err
	}
	var name [64]byte
	for _, fi := range files {
		fi := int(fi)
		stream.AppendFile(g.w.FileHash(fi), uint64(g.w.FileSize(fi)),
			g.w.AppendFileName(name[:0], fi), g.w.FileKind(fi).String(), 0)
	}
	return stream.End()
}
