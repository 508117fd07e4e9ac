// Package serve puts the first-tier server on real sockets at
// production load. The simulation side of the repo answers protocol
// queries through mutable, mutex-guarded state (the boxed
// internal/edonkey server, the crawl gateway's per-day maps); that is
// the right shape for a world that evolves mid-crawl, but a serving
// daemon spends its life answering queries against a fixed day. This
// package freezes one day of a world or trace into an immutable,
// epoch-pinned Snapshot — packed columns, CSR holder postings, a
// keyword index — whose read paths take no locks at all, and serves it
// over TCP with a session loop that decodes requests into reused structs
// (protocol.RequestDecoder) and renders replies straight into reused
// frame buffers (protocol.ServerCore.AppendReply), allocating nothing
// per request.
//
// Swapping days is an atomic pointer swap of the whole Snapshot: a new
// epoch is built off to the side and published, in-flight queries keep
// reading the epoch they pinned. Nothing in the query path can contend,
// which is what lets one core sustain thousands of concurrent
// connections (cmd/edserved + cmd/edload measure this).
package serve

import (
	"bytes"
	"slices"
	"sort"
	"strings"

	"edonkey/internal/protocol"
	"edonkey/internal/trace"
	"edonkey/internal/workload"
)

// DefaultServerEndpoint is the canonical first-tier server identity
// reported in ServerList replies — the same address the crawl gateway
// registers on the in-memory switchboard, so replies compare equal
// across the pipe and TCP paths.
var DefaultServerEndpoint = protocol.Endpoint{IP: 0xFFFE0001, Port: 4661}

// Snapshot is one day of a population frozen for serving: the logged-in
// users in nickname order, the published catalogue, per-file source
// postings and a keyword index. It is immutable after construction —
// every method is safe for unlimited concurrent use with zero
// synchronization — and implements protocol.Directory: every query is a
// visit over packed columns, so the server renders replies straight into
// the frame buffer.
type Snapshot struct {
	servers []protocol.Endpoint

	// Users in (nickname, original index) order; nicknames are unique in
	// both generators (they embed the index), so prefix queries binary
	// search nick and scan forward.
	nick     []string
	userHash [][16]byte
	userIP   []uint32
	userPort []uint16
	clientID []uint32

	// Published files (only files with at least one online source are
	// indexed; anything else is invisible to queries, like an index no
	// client published to).
	fileHash  [][16]byte
	fileName  []string
	fileSize  []uint64
	fileType  []string
	avail     []uint32
	byHash    map[[16]byte]int32
	keyword   map[string][]int32 // token -> file indices, hash-sorted
	holderOff []int32
	holderEps []protocol.Endpoint // CSR: per-file source endpoints, (IP, port)-sorted
}

var _ protocol.Directory = (*Snapshot)(nil)

// NumUsers returns how many users are logged in on the snapshot's day.
func (s *Snapshot) NumUsers() int { return len(s.nick) }

// NumFiles returns how many published files the snapshot indexes.
func (s *Snapshot) NumFiles() int { return len(s.fileHash) }

// ForEachServer visits the known-server list in reply order.
func (s *Snapshot) ForEachServer(yield func(protocol.Endpoint) bool) {
	for _, ep := range s.servers {
		if !yield(ep) {
			return
		}
	}
}

// UsersWithPrefix visits logged-in users whose nickname starts with the
// prefix, in nickname order.
func (s *Snapshot) UsersWithPrefix(prefix string, yield func(protocol.UserEntry) bool) {
	lo := sort.SearchStrings(s.nick, prefix)
	for k := lo; k < len(s.nick) && strings.HasPrefix(s.nick[k], prefix); k++ {
		u := protocol.UserEntry{
			Hash:     s.userHash[k],
			ClientID: s.clientID[k],
			Endpoint: protocol.Endpoint{IP: s.userIP[k], Port: s.userPort[k]},
			Nickname: s.nick[k],
		}
		if !yield(u) {
			return
		}
	}
}

// ForEachSource visits the endpoints sharing the file, (IP, port)-sorted.
func (s *Snapshot) ForEachSource(hash [16]byte, yield func(protocol.Endpoint) bool) {
	fi, ok := s.byHash[hash]
	if !ok {
		return
	}
	for _, ep := range s.holderEps[s.holderOff[fi]:s.holderOff[fi+1]] {
		if !yield(ep) {
			return
		}
	}
}

// ForEachFile visits the published entries whose name contains the
// keyword token, hash-sorted with live availability, matching the crawl
// gateway's reply order.
func (s *Snapshot) ForEachFile(kw string, yield func(protocol.FileEntry) bool) {
	// Gather a few entries from the columns, then hand them over: the
	// column reads of a batch are independent loads the processor
	// overlaps, which it cannot do across a yield that encodes the
	// entry. On a snapshot larger than the caches, yielding straight
	// from the columns takes nearly twice as long per search reply.
	var batch [16]protocol.FileEntry
	for fis := s.keyword[kw]; len(fis) > 0; {
		n := min(len(fis), len(batch))
		for k, fi := range fis[:n] {
			batch[k] = protocol.FileEntry{
				Hash:         s.fileHash[fi],
				Size:         s.fileSize[fi],
				Name:         s.fileName[fi],
				Type:         s.fileType[fi],
				Availability: s.avail[fi],
			}
		}
		for k := range batch[:n] {
			if !yield(batch[k]) {
				return
			}
		}
		fis = fis[n:]
	}
}

// SearchFiles collects what ForEachFile visits. Serving never calls it
// (replies are rendered entry by entry); it is the slice-shaped lookup
// for callers that want the entries themselves.
func (s *Snapshot) SearchFiles(kw string) []protocol.FileEntry {
	n := len(s.keyword[kw])
	if n == 0 {
		return nil
	}
	out := make([]protocol.FileEntry, 0, n)
	s.ForEachFile(kw, func(f protocol.FileEntry) bool {
		out = append(out, f)
		return true
	})
	return out
}

// user is the construction-time row shape; build sorts these once and
// splits them into the packed columns.
type user struct {
	nick string
	hash [16]byte
	ip   uint32
	port uint16
	id   uint32
	idx  int
}

// holder is one (file, endpoint) posting collected during construction.
type holder struct {
	fi int32
	ep protocol.Endpoint
}

// fileRow is the construction-time catalogue row.
type fileRow struct {
	hash [16]byte
	name string
	size uint64
	typ  string
}

// build assembles a Snapshot from the construction rows: sorts users by
// nickname, keeps only files with sources, packs the holder postings
// into CSR with (IP, port)-sorted spans and indexes keywords hash-sorted.
func build(users []user, files []fileRow, holders []holder) *Snapshot {
	s := &Snapshot{servers: []protocol.Endpoint{DefaultServerEndpoint}}

	slices.SortFunc(users, func(a, b user) int {
		if c := strings.Compare(a.nick, b.nick); c != 0 {
			return c
		}
		return a.idx - b.idx
	})
	s.nick = make([]string, len(users))
	s.userHash = make([][16]byte, len(users))
	s.userIP = make([]uint32, len(users))
	s.userPort = make([]uint16, len(users))
	s.clientID = make([]uint32, len(users))
	for k, u := range users {
		s.nick[k] = u.nick
		s.userHash[k] = u.hash
		s.userIP[k] = u.ip
		s.userPort[k] = u.port
		s.clientID[k] = u.id
	}

	// Source counts per original file index, then remap to the published
	// subset (files somebody shares today).
	counts := make([]int32, len(files))
	for _, h := range holders {
		counts[h.fi]++
	}
	remap := make([]int32, len(files))
	for fi := range files {
		remap[fi] = -1
	}
	published := 0
	for fi, n := range counts {
		if n > 0 {
			remap[fi] = int32(published)
			published++
		}
	}
	s.fileHash = make([][16]byte, published)
	s.fileName = make([]string, published)
	s.fileSize = make([]uint64, published)
	s.fileType = make([]string, published)
	s.avail = make([]uint32, published)
	s.byHash = make(map[[16]byte]int32, published)
	s.holderOff = make([]int32, published+1)
	for fi, f := range files {
		p := remap[fi]
		if p < 0 {
			continue
		}
		s.fileHash[p] = f.hash
		s.fileName[p] = f.name
		s.fileSize[p] = f.size
		s.fileType[p] = f.typ
		s.avail[p] = uint32(counts[fi])
		s.byHash[f.hash] = p
		s.holderOff[p+1] = counts[fi]
	}
	for p := 0; p < published; p++ {
		s.holderOff[p+1] += s.holderOff[p]
	}
	s.holderEps = make([]protocol.Endpoint, len(holders))
	fill := make([]int32, published)
	for _, h := range holders {
		p := remap[h.fi]
		s.holderEps[s.holderOff[p]+fill[p]] = h.ep
		fill[p]++
	}
	for p := 0; p < published; p++ {
		span := s.holderEps[s.holderOff[p]:s.holderOff[p+1]]
		slices.SortFunc(span, protocol.Endpoint.Compare)
	}

	// Keyword index over published names, spans hash-sorted so a search
	// reply comes out in the gateway's order without a per-query sort.
	s.keyword = make(map[string][]int32)
	for p := 0; p < published; p++ {
		for _, tok := range protocol.Tokenize(s.fileName[p]) {
			s.keyword[tok] = append(s.keyword[tok], int32(p))
		}
	}
	for _, fis := range s.keyword {
		slices.SortFunc(fis, func(a, b int32) int {
			return bytes.Compare(s.fileHash[a][:], s.fileHash[b][:])
		})
	}
	return s
}

// SnapshotFromWorld freezes the world's given day: who is logged in and
// under which ID comes from the same replay of the day's login sequence
// the crawl gateway answers from (workload.World.ReplayLogins), so a
// query answered from this snapshot matches one answered by the gateway
// over the same world day.
func SnapshotFromWorld(w *workload.World, day int) *Snapshot {
	users := make([]user, 0, w.OnlineCount())
	var holders []holder
	w.ReplayLogins(day, func(i int, ip uint32, hash [16]byte, reachable bool) {
		ep := protocol.Endpoint{IP: ip, Port: workload.ClientPort(i)}
		id := uint32(1)
		if reachable {
			id = protocol.HighID(ip)
		}
		users = append(users, user{
			nick: w.Nickname(i), hash: hash, ip: ip, port: ep.Port, id: id, idx: i,
		})
		files, _ := w.CacheView(i)
		for _, fi := range files {
			holders = append(holders, holder{fi: fi, ep: ep})
		}
	})
	files := make([]fileRow, w.NumFiles())
	for fi := range files {
		files[fi] = fileRow{
			hash: w.FileHash(fi),
			name: w.FileName(fi),
			size: uint64(w.FileSize(fi)),
			typ:  w.FileKind(fi).String(),
		}
	}
	return build(users, files, holders)
}

// SnapshotFromTrace freezes day index dayIdx (into tr.Days) of a
// captured trace: the peers observed that day are the logged-in users,
// their observed caches are the published index. Firewalled peers log
// in low-ID; everyone else gets the IP-derived high ID.
func SnapshotFromTrace(tr *trace.Trace, dayIdx int) *Snapshot {
	d := tr.Days[dayIdx]
	users := make([]user, 0, d.ObservedRows())
	var holders []holder
	d.ForEachRow(func(p trace.PeerID, row []trace.FileID) {
		ip := tr.PeerIP(p)
		ep := protocol.Endpoint{IP: ip, Port: workload.ClientPort(int(p))}
		id := uint32(1)
		if !tr.PeerFirewalled(p) {
			id = protocol.HighID(ip)
		}
		users = append(users, user{
			nick: tr.PeerNickname(p),
			hash: tr.PeerUserHash(p),
			ip:   ip,
			port: ep.Port,
			id:   id,
			idx:  int(p),
		})
		for _, fi := range row {
			holders = append(holders, holder{fi: int32(fi), ep: ep})
		}
	})
	files := make([]fileRow, tr.NumFiles())
	for fi := range files {
		f := trace.FileID(fi)
		files[fi] = fileRow{
			hash: tr.FileHash(f),
			name: tr.FileName(f),
			size: uint64(tr.FileSize(f)),
			typ:  tr.FileKind(f).String(),
		}
	}
	return build(users, files, holders)
}
