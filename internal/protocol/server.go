// Server-side request engine. The measurement artefacts the paper's
// methodology hinges on — the 200-user reply cap on nickname queries,
// the reject semantics of removed features — live at the protocol layer,
// so they are implemented here once, over a pluggable Directory, and
// shared by every server implementation: the boxed in-memory server
// (internal/edonkey.Server, fed by wire publications) and the columnar
// world gateway (internal/crawler), whose directory is a view over a
// million-peer population that never materializes per-client state.
package protocol

import (
	"encoding/binary"
	"slices"
	"strings"
)

// Directory is the index a first-tier server consults to answer queries.
// Every method is a visitor: the directory enumerates in its own reply
// order and stops early when yield returns false, so a reply can be
// rendered entry by entry without the directory building a slice. A
// deterministic directory makes the served crawl deterministic even when
// replies truncate at the cap.
type Directory interface {
	// ForEachServer visits the known-server list.
	ForEachServer(yield func(Endpoint) bool)
	// UsersWithPrefix visits the logged-in users whose nickname starts
	// with the (lowercased) prefix.
	UsersWithPrefix(prefix string, yield func(UserEntry) bool)
	// ForEachSource visits the endpoints currently offering the file.
	ForEachSource(hash [16]byte, yield func(Endpoint) bool)
	// ForEachFile visits the published entries matching a (lowercased)
	// keyword token, with Availability filled in.
	ForEachFile(keyword string, yield func(FileEntry) bool)
}

// Tokenize splits a file name into the lowercased keyword tokens a
// directory indexes it under, each token once.
func Tokenize(name string) []string {
	toks := strings.FieldsFunc(strings.ToLower(name), func(r rune) bool {
		switch r {
		case '_', '.', '-', ' ', '(', ')', '[', ']':
			return true
		}
		return false
	})
	out := toks[:0]
	for _, t := range toks {
		if !slices.Contains(out, t) {
			out = append(out, t)
		}
	}
	return out
}

// ServerCore turns server-bound request messages into replies using a
// Directory. It enforces the measured server behaviours: the reply cap
// on user searches and the "query-users not implemented" reject of newer
// servers. Login and publication are session state and stay with the
// host; everything else routes through AppendReply.
//
// A ServerCore keeps its reply renderer between calls, so it belongs to
// one session at a time: give each connection its own and set Dir per
// request if the directory can change.
type ServerCore struct {
	Dir Directory
	// MaxUserReplies caps SearchUser replies (the paper measured 200).
	MaxUserReplies int
	// SupportsUserSearch mirrors the paper's observation that newer
	// servers removed the query-users feature; when false, SearchUser
	// gets a Reject.
	SupportsUserSearch bool

	w *replyWriter
}

var rejectUserSearch = &Reject{Reason: "query-users not implemented"}

// Handle answers one request with a materialized reply message. It is
// the reference AppendReply is tested against — Handle + WriteMessage
// and AppendReply put the same bytes on the wire — and returns
// handled=false for messages the core does not own (login,
// publications, client-client traffic).
func (s *ServerCore) Handle(m Message) (reply Message, handled bool) {
	switch req := m.(type) {
	case *GetServerList:
		out := &ServerList{}
		s.Dir.ForEachServer(func(e Endpoint) bool {
			out.Servers = append(out.Servers, e)
			return true
		})
		return out, true
	case *SearchUser:
		if !s.SupportsUserSearch {
			return rejectUserSearch, true
		}
		out := &SearchUserResult{}
		s.Dir.UsersWithPrefix(strings.ToLower(req.Query), func(u UserEntry) bool {
			if len(out.Users) >= s.MaxUserReplies {
				return false
			}
			out.Users = append(out.Users, u)
			return true
		})
		return out, true
	case *GetSources:
		out := &FoundSources{Hash: req.Hash}
		s.Dir.ForEachSource(req.Hash, func(e Endpoint) bool {
			out.Sources = append(out.Sources, e)
			return true
		})
		return out, true
	case *SearchRequest:
		out := &SearchResult{}
		s.Dir.ForEachFile(strings.ToLower(req.Keyword), func(f FileEntry) bool {
			out.Files = append(out.Files, f)
			return true
		})
		return out, true
	}
	return nil, false
}

// ListFrame renders a frame whose payload is a counted list straight
// into a buffer, element by element: Begin writes the header with the
// size and the count left open, each append adds one element, End
// patches both. Nothing is materialized in between.
type ListFrame struct {
	buf            []byte
	start, countAt int
	n              uint32
}

// BeginFiles starts an OfferFiles, SearchResult or SharedFilesAnswer
// frame (opcode says which) at the end of dst.
func (f *ListFrame) BeginFiles(dst []byte, opcode byte) { f.begin(dst, opcode, nil) }

// begin starts a frame whose payload is prefix, then the counted list.
func (f *ListFrame) begin(dst []byte, opcode byte, prefix []byte) {
	f.start = len(dst)
	dst = append(dst, ProtoMarker, 0, 0, 0, 0, opcode)
	dst = append(dst, prefix...)
	f.countAt = len(dst)
	f.buf = append(dst, 0, 0, 0, 0)
	f.n = 0
}

// AppendFile adds one file entry from its fields. name may live in a
// scratch buffer the caller reuses for the next entry.
func (f *ListFrame) AppendFile(hash [16]byte, size uint64, name []byte, typ string, avail uint32) {
	f.buf = appendFileHead(f.buf, &hash, size, len(name))
	f.buf = append(f.buf, name...)
	f.buf = appendFileTail(f.buf, typ, avail)
	f.n++
}

// End patches the payload size and element count and returns the
// buffer. Like AppendMessage it drops a frame above MaxMessageSize and
// returns the buffer as it was before Begin.
func (f *ListFrame) End() []byte {
	size := len(f.buf) - f.start - frameHeaderSize
	if size > MaxMessageSize {
		return f.buf[:f.start]
	}
	binary.LittleEndian.PutUint32(f.buf[f.start+1:], uint32(size))
	binary.LittleEndian.PutUint32(f.buf[f.countAt:], f.n)
	return f.buf
}

// replyWriter is the ListFrame a ServerCore renders directory visits
// into. The three yield functions are built once and close over the
// writer, so handing one to a Directory — an interface call the
// compiler cannot see through — allocates nothing per reply.
type replyWriter struct {
	ListFrame
	limit int // SearchUser reply cap

	user   func(UserEntry) bool
	source func(Endpoint) bool
	file   func(FileEntry) bool
}

func newReplyWriter() *replyWriter {
	w := &replyWriter{}
	w.user = func(u UserEntry) bool {
		if int(w.n) >= w.limit {
			return false
		}
		w.buf = appendUserEntry(w.buf, u)
		w.n++
		return true
	}
	w.source = func(e Endpoint) bool {
		w.buf = appendEndpoint(w.buf, e)
		w.n++
		return true
	}
	w.file = func(f FileEntry) bool {
		w.buf = appendFileEntry(w.buf, f)
		w.n++
		return true
	}
	return w
}

// AppendReply answers one request by appending the complete reply frame
// to dst, returning the extended slice. It is the serving path — the
// bytes are those of Handle + WriteMessage — and no reply is ever
// materialized: server, user, source and file lists are rendered
// straight into the frame as the directory visits them, the count and
// size fields patched afterwards. With room in dst it allocates nothing.
// handled=false mirrors Handle: the request is not the core's to
// answer, and dst is returned unchanged.
func (s *ServerCore) AppendReply(dst []byte, m Message) (out []byte, handled bool) {
	if s.w == nil {
		s.w = newReplyWriter()
	}
	w := s.w
	switch req := m.(type) {
	case *GetServerList:
		w.begin(dst, OpServerList, nil)
		s.Dir.ForEachServer(w.source)
	case *SearchUser:
		if !s.SupportsUserSearch {
			out, _ = AppendMessage(dst, rejectUserSearch)
			return out, true
		}
		w.limit = s.MaxUserReplies
		w.begin(dst, OpSearchUserResult, nil)
		s.Dir.UsersWithPrefix(strings.ToLower(req.Query), w.user)
	case *GetSources:
		w.begin(dst, OpFoundSources, req.Hash[:])
		s.Dir.ForEachSource(req.Hash, w.source)
	case *SearchRequest:
		w.begin(dst, OpSearchResult, nil)
		s.Dir.ForEachFile(strings.ToLower(req.Keyword), w.file)
	default:
		return dst, false
	}
	out = w.End()
	w.buf = nil // the caller owns the buffer again
	return out, true
}
