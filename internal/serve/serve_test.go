package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"edonkey/internal/memconn"
	"edonkey/internal/protocol"
	"edonkey/internal/workload"
)

// testWorld builds one small evolved world shared by every test in the
// package (construction dominates test time otherwise).
var testWorld = sync.OnceValue(func() *workload.World {
	cfg := workload.DefaultConfig()
	cfg.Seed = 7
	cfg.Peers = 300
	cfg.Days = 3
	cfg.Topics = 12
	cfg.InitialFiles = 1500
	cfg.NewFilesPerDay = 15
	cfg.Workers = 1
	w, err := workload.New(cfg)
	if err != nil {
		panic(err)
	}
	w.Step() // serve day 1, so identities and caches have churned once
	return w
})

var testSnap = sync.OnceValue(func() *Snapshot {
	w := testWorld()
	return SnapshotFromWorld(w, w.Day())
})

// someQuery picks the file hash and keyword the tests and benchmarks
// query for, the same on every run: the smallest published hash and the
// first token of that file's name (an adjective from the word pool, so
// the search reply is a twelfth of the catalogue).
func someQuery(snap *Snapshot) (hash [16]byte, kw string) {
	fi := 0
	for k := range snap.fileHash {
		if bytes.Compare(snap.fileHash[k][:], snap.fileHash[fi][:]) < 0 {
			fi = k
		}
	}
	return snap.fileHash[fi], protocol.Tokenize(snap.fileName[fi])[0]
}

// corpus returns a request mix covering every reply shape: empty and
// truncated user sweeps, hit and miss source/keyword queries, the
// server list, logins and requests the first tier rejects.
func corpus(t testing.TB) []protocol.Message {
	snap := testSnap()
	if snap.NumUsers() == 0 || snap.NumFiles() == 0 {
		t.Fatal("test snapshot is empty")
	}
	hit, kw := someQuery(snap)
	var miss [16]byte
	miss[0] = 0xFF
	return []protocol.Message{
		&protocol.LoginRequest{UserHash: [16]byte{1}, Endpoint: protocol.Endpoint{IP: 0x0A000001, Port: 4662}, Nickname: "probe", Version: 60},
		&protocol.LoginRequest{UserHash: [16]byte{2}, Endpoint: protocol.Endpoint{IP: 0x00000042, Port: 4662}, Nickname: "lowip", Version: 60},
		&protocol.GetServerList{},
		&protocol.SearchUser{Query: ""}, // everyone: exercises the reply cap
		&protocol.SearchUser{Query: "a"},
		&protocol.SearchUser{Query: "zzzz_nobody"},
		&protocol.SearchRequest{Keyword: kw},
		&protocol.SearchRequest{Keyword: "no_such_keyword"},
		&protocol.GetSources{Hash: hit},
		&protocol.GetSources{Hash: miss},
		&protocol.AskSharedFiles{}, // not the first tier's: Reject
		&protocol.Hello{UserHash: [16]byte{3}},
	}
}

// TestAppendReplyMatchesHandle pins the hot-path renderer byte for byte
// against the reference Handle + WriteMessage pipeline, across the
// corpus, a small reply cap and the no-user-search server flavor.
func TestAppendReplyMatchesHandle(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cap     int
		sweepOK bool
	}{
		{"cap=200", 200, true},
		{"cap=7", 7, true},
		{"nosweep", 200, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			core := protocol.ServerCore{Dir: testSnap(), MaxUserReplies: tc.cap, SupportsUserSearch: tc.sweepOK}
			for _, req := range corpus(t) {
				ref, handled := core.Handle(req)
				got, gotHandled := core.AppendReply(nil, req)
				if gotHandled != handled {
					t.Fatalf("%T: handled %v, want %v", req, gotHandled, handled)
				}
				if !handled {
					if len(got) != 0 {
						t.Fatalf("%T: unhandled request appended %d bytes", req, len(got))
					}
					continue
				}
				var want bytes.Buffer
				if err := protocol.WriteMessage(&want, ref); err != nil {
					t.Fatalf("%T: reference encode: %v", req, err)
				}
				if !bytes.Equal(got, want.Bytes()) {
					t.Fatalf("%T: AppendReply differs from Handle+WriteMessage\n got %x\nwant %x", req, got, want.Bytes())
				}
			}
		})
	}
}

// readFrame reads one raw reply frame (header + payload).
func readFrame(t *testing.T, r io.Reader) []byte {
	t.Helper()
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		t.Fatalf("read frame header: %v", err)
	}
	size := binary.LittleEndian.Uint32(hdr[1:])
	frame := make([]byte, 5+size)
	copy(frame, hdr[:])
	if _, err := io.ReadFull(r, frame[5:]); err != nil {
		t.Fatalf("read frame payload: %v", err)
	}
	return frame
}

// replyStream sends the corpus over conn and concatenates the raw reply
// frames (OfferFiles elicits none).
func replyStream(t *testing.T, conn net.Conn, reqs []protocol.Message) []byte {
	t.Helper()
	var out []byte
	for _, req := range reqs {
		if err := protocol.WriteMessage(conn, req); err != nil {
			t.Fatalf("write %T: %v", req, err)
		}
		if _, fire := req.(*protocol.OfferFiles); fire {
			continue
		}
		out = append(out, readFrame(t, conn)...)
	}
	return out
}

// TestPipeAndTCPRepliesByteIdentical drives the same request sequence
// through both serving surfaces — the in-process pipe path, over net.Pipe
// and over the memconn pipe edonkey.Network dials with, and a real TCP
// connection — and requires the reply byte streams to be identical, and
// identical to what ServerCore.Handle + WriteMessage renders: ServeConn
// does not care which transport is under it.
func TestPipeAndTCPRepliesByteIdentical(t *testing.T) {
	reqs := append(corpus(t), &protocol.OfferFiles{Files: []protocol.FileEntry{{Name: "x.mp3", Size: 1}}}, &protocol.SearchUser{Query: "b"})
	srv := New(testSnap(), Config{})

	viaPipes := make(map[string][]byte)
	for name, pipe := range map[string]func() (net.Conn, net.Conn){"net.Pipe": net.Pipe, "memconn.Pipe": memconn.Pipe} {
		pc, ps := pipe()
		go srv.ServeConn(ps)
		pc.SetDeadline(time.Now().Add(30 * time.Second))
		viaPipes[name] = replyStream(t, pc, reqs)
		pc.Close()
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { srv.Serve(ln); close(done) }()
	tc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	tc.SetDeadline(time.Now().Add(30 * time.Second))
	viaTCP := replyStream(t, tc, reqs)
	tc.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	<-done

	want := referenceStream(t, reqs)
	for name, viaPipe := range viaPipes {
		if !bytes.Equal(viaPipe, viaTCP) {
			t.Errorf("%s and TCP reply streams differ (%d vs %d bytes)", name, len(viaPipe), len(viaTCP))
		}
		if !bytes.Equal(viaPipe, want) {
			t.Errorf("reply stream served over %s differs from Handle + WriteMessage (%d vs %d bytes)", name, len(viaPipe), len(want))
		}
	}
}

// referenceStream renders the replies the server owes reqs through the
// materializing reference path: the session's own IDChange and Reject,
// ServerCore.Handle for the rest, each written with WriteMessage.
func referenceStream(t *testing.T, reqs []protocol.Message) []byte {
	t.Helper()
	core := protocol.ServerCore{Dir: testSnap(), MaxUserReplies: 200, SupportsUserSearch: true}
	var want bytes.Buffer
	for _, req := range reqs {
		var reply protocol.Message
		switch m := req.(type) {
		case *protocol.LoginRequest:
			reply = &protocol.IDChange{ClientID: protocol.HighID(m.Endpoint.IP)}
		case *protocol.OfferFiles:
			continue
		default:
			var handled bool
			if reply, handled = core.Handle(req); !handled {
				reply = &protocol.Reject{Reason: "unsupported request"}
			}
		}
		if err := protocol.WriteMessage(&want, reply); err != nil {
			t.Fatal(err)
		}
	}
	return want.Bytes()
}

// TestServeStress runs 256 concurrent TCP sessions of mixed traffic
// (login, sweeps, searches, sources, publishes, rejected requests),
// validates every reply's shape, then drains the server and checks no
// goroutines leak.
func TestServeStress(t *testing.T) {
	baseline := runtime.NumGoroutine()
	snap := testSnap()
	someHash, _ := someQuery(snap)
	srv := New(snap, Config{MaxConns: 512})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	const sessions = 256
	const perSession = 24
	errc := make(chan error, sessions)
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			errc <- stressSession(ln.Addr().String(), s, perSession, someHash)
		}(s)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			t.Fatal(err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveDone; err != ErrServerClosed {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
	st := srv.Stats()
	if st.Active != 0 {
		t.Fatalf("still %d active connections after drain", st.Active)
	}
	wantQueries := uint64(sessions * (perSession + 2)) // +login and final exchange
	if st.Queries < wantQueries {
		t.Fatalf("served %d queries, want >= %d", st.Queries, wantQueries)
	}

	// All per-connection goroutines must be gone; allow the runtime a
	// moment to reap them.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak after drain: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// stressSession runs one stress connection: login first, then a mixed
// request sequence with reply-shape validation.
func stressSession(addr string, id, n int, someHash [16]byte) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(60 * time.Second))
	login := &protocol.LoginRequest{
		Endpoint: protocol.Endpoint{IP: uint32(0x0B000000 + id), Port: 4662},
		Nickname: fmt.Sprintf("stress_%03d", id),
		Version:  60,
	}
	if err := protocol.WriteMessage(conn, login); err != nil {
		return err
	}
	reply, err := protocol.ReadMessage(conn)
	if err != nil {
		return err
	}
	idc, ok := reply.(*protocol.IDChange)
	if !ok {
		return fmt.Errorf("session %d: login got %T", id, reply)
	}
	if idc.ClientID < protocol.LowIDThreshold {
		return fmt.Errorf("session %d: got low ID %d for reachable IP", id, idc.ClientID)
	}
	rng := rand.New(rand.NewPCG(uint64(id), 99))
	for k := 0; k < n; k++ {
		var req protocol.Message
		var want string
		switch rng.IntN(5) {
		case 0:
			req, want = &protocol.SearchUser{Query: string(rune('a' + rng.IntN(26)))}, "*protocol.SearchUserResult"
		case 1:
			req, want = &protocol.SearchRequest{Keyword: "horizon"}, "*protocol.SearchResult"
		case 2:
			req, want = &protocol.GetSources{Hash: someHash}, "*protocol.FoundSources"
		case 3:
			req, want = &protocol.OfferFiles{Files: []protocol.FileEntry{{Name: "up.mp3", Size: 42}}}, ""
		default:
			req, want = &protocol.AskSharedFiles{}, "*protocol.Reject"
		}
		if err := protocol.WriteMessage(conn, req); err != nil {
			return fmt.Errorf("session %d req %d: %v", id, k, err)
		}
		if want == "" {
			continue // fire-and-forget publish
		}
		reply, err := protocol.ReadMessage(conn)
		if err != nil {
			return fmt.Errorf("session %d req %d: %v", id, k, err)
		}
		if got := fmt.Sprintf("%T", reply); got != want {
			return fmt.Errorf("session %d req %d (%T): got %s, want %s", id, k, req, got, want)
		}
	}
	// A final synchronous exchange: its reply proves every prior
	// fire-and-forget publish on this connection was processed too, so
	// the caller's query accounting is exact.
	if err := protocol.WriteMessage(conn, &protocol.GetServerList{}); err != nil {
		return err
	}
	if reply, err = protocol.ReadMessage(conn); err != nil {
		return err
	}
	if _, ok := reply.(*protocol.ServerList); !ok {
		return fmt.Errorf("session %d: final exchange got %T", id, reply)
	}
	return nil
}

// TestSnapshotDirectory pins the snapshot's directory semantics: sweep
// order and cap, source ordering and early stop, keyword availability
// and the SearchFiles collector.
func TestSnapshotDirectory(t *testing.T) {
	snap := testSnap()

	// Sweep enumerates in nickname order and respects early stop.
	var nicks []string
	snap.UsersWithPrefix("", func(u protocol.UserEntry) bool {
		nicks = append(nicks, u.Nickname)
		return len(nicks) < 10
	})
	if len(nicks) != 10 {
		t.Fatalf("early-stopped sweep returned %d entries", len(nicks))
	}
	for i := 1; i < len(nicks); i++ {
		if nicks[i-1] >= nicks[i] {
			t.Fatalf("sweep out of order: %q before %q", nicks[i-1], nicks[i])
		}
	}

	// Prefix filtering matches string prefixes exactly.
	prefix := nicks[0][:2]
	snap.UsersWithPrefix(prefix, func(u protocol.UserEntry) bool {
		if u.Nickname[:2] != prefix {
			t.Fatalf("prefix %q sweep yielded %q", prefix, u.Nickname)
		}
		return true
	})

	// Every published file: source spans are (IP, port)-sorted,
	// availability matches the span length and the visit stops when told.
	for hash, fi := range snap.byHash {
		var sources []protocol.Endpoint
		snap.ForEachSource(hash, func(ep protocol.Endpoint) bool {
			sources = append(sources, ep)
			return true
		})
		if int(snap.avail[fi]) != len(sources) {
			t.Fatalf("file %x: availability %d, %d sources", hash[:4], snap.avail[fi], len(sources))
		}
		for i := 1; i < len(sources); i++ {
			a, b := sources[i-1], sources[i]
			if a.IP > b.IP || (a.IP == b.IP && a.Port > b.Port) {
				t.Fatalf("file %x: sources out of order", hash[:4])
			}
		}
		visits := 0
		snap.ForEachSource(hash, func(protocol.Endpoint) bool { visits++; return false })
		if visits != 1 {
			t.Fatalf("file %x: visit went on after yield returned false (%d visits)", hash[:4], visits)
		}
	}

	// Every keyword: ForEachFile visits hash-sorted entries that carry
	// the indexed availability, and SearchFiles collects exactly those.
	for kw := range snap.keyword {
		var files []protocol.FileEntry
		snap.ForEachFile(kw, func(f protocol.FileEntry) bool {
			files = append(files, f)
			return true
		})
		if len(files) == 0 {
			t.Fatalf("indexed keyword %q found nothing", kw)
		}
		for i, f := range files {
			if i > 0 && bytes.Compare(files[i-1].Hash[:], f.Hash[:]) >= 0 {
				t.Fatalf("keyword %q: results not hash-sorted", kw)
			}
			if f.Availability == 0 {
				t.Fatalf("keyword %q: zero availability for %q", kw, f.Name)
			}
		}
		if got := snap.SearchFiles(kw); !slices.Equal(got, files) {
			t.Fatalf("keyword %q: SearchFiles returned %d entries, ForEachFile visited %d", kw, len(got), len(files))
		}
	}
	if got := snap.SearchFiles("no_such_keyword"); got != nil {
		t.Fatalf("SearchFiles on a miss returned %d entries", len(got))
	}
}

// TestSnapshotEpochSwap checks SetSnapshot publishes a new epoch to new
// requests without disturbing the server.
func TestSnapshotEpochSwap(t *testing.T) {
	w := testWorld()
	srv := New(testSnap(), Config{})
	pc, ps := net.Pipe()
	go srv.ServeConn(ps)
	defer pc.Close()
	pc.SetDeadline(time.Now().Add(30 * time.Second))

	before := replyStream(t, pc, []protocol.Message{&protocol.SearchUser{Query: ""}})
	empty := build(nil, nil, nil) // an epoch with nobody logged in
	srv.SetSnapshot(empty)
	after := replyStream(t, pc, []protocol.Message{&protocol.SearchUser{Query: ""}})
	if bytes.Equal(before, after) {
		t.Fatal("epoch swap did not change replies")
	}
	var wantEmpty bytes.Buffer
	if err := protocol.WriteMessage(&wantEmpty, &protocol.SearchUserResult{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, wantEmpty.Bytes()) {
		t.Fatalf("post-swap sweep: got %x, want empty result", after)
	}
	_ = w
}

// TestAppendReplyZeroAllocs pins the render side of the serving path:
// with room in the buffer, a server list, a capped user sweep, a source
// list and a search result are each rendered from the snapshot's columns
// without one heap object.
func TestAppendReplyZeroAllocs(t *testing.T) {
	snap := testSnap()
	hit, kw := someQuery(snap)
	core := &protocol.ServerCore{Dir: snap, MaxUserReplies: 200, SupportsUserSearch: true}
	buf := make([]byte, 0, 1<<20)
	for _, req := range []protocol.Message{
		&protocol.GetServerList{},
		&protocol.SearchUser{Query: "a"},
		&protocol.GetSources{Hash: hit},
		&protocol.SearchRequest{Keyword: kw},
	} {
		out, handled := core.AppendReply(buf[:0], req)
		if !handled || len(out) <= 10 {
			t.Fatalf("%T: reply of %d bytes, handled %v", req, len(out), handled)
		}
		if n := testing.AllocsPerRun(100, func() { core.AppendReply(buf[:0], req) }); n != 0 {
			t.Errorf("%T: AppendReply allocated %v times", req, n)
		}
	}
}

// randomSnapshot builds a snapshot from random rows: users with
// colliding nickname prefixes, files drawn from a small word pool so
// keywords repeat, random holders (some files left unpublished).
func randomSnapshot(rng *rand.Rand) *Snapshot {
	words := []string{"blue", "Echo", "river", "t001", "t002", "x"}
	users := make([]user, rng.IntN(60))
	for i := range users {
		users[i] = user{
			nick: fmt.Sprintf("%c%c_%d", 'a'+rng.IntN(3), 'a'+rng.IntN(3), i),
			ip:   rng.Uint32(), port: uint16(rng.Uint32()), id: rng.Uint32(), idx: i,
		}
		users[i].hash[0] = byte(i)
	}
	files := make([]fileRow, rng.IntN(80))
	for i := range files {
		files[i] = fileRow{
			name: fmt.Sprintf("%s_%s_%04d.mp3", words[rng.IntN(len(words))], words[rng.IntN(len(words))], i),
			size: rng.Uint64() % (1 << 32), typ: "audio",
		}
		files[i].hash[0], files[i].hash[1] = byte(rng.Uint32()), byte(i)
	}
	var holders []holder
	if len(files) > 0 {
		for k := rng.IntN(300); k > 0; k-- {
			holders = append(holders, holder{
				fi: int32(rng.IntN(len(files))),
				ep: protocol.Endpoint{IP: rng.Uint32() % 8, Port: uint16(rng.IntN(4))},
			})
		}
	}
	return build(users, files, holders)
}

// TestAppendReplyMatchesHandleRandom is the property behind the fixed
// corpus: over random snapshots, random reply caps and random requests
// (hits, misses, mixed case, requests the core does not own),
// AppendReply ≡ Handle + WriteMessage byte for byte — appended after
// whatever the buffer already held.
func TestAppendReplyMatchesHandleRandom(t *testing.T) {
	rng := rand.New(rand.NewPCG(2006, 15))
	for iter := 0; iter < 200; iter++ {
		snap := randomSnapshot(rng)
		core := protocol.ServerCore{Dir: snap, MaxUserReplies: rng.IntN(12), SupportsUserSearch: rng.IntN(5) > 0}
		prefix := []byte("earlier replies")
		for q := 0; q < 20; q++ {
			var req protocol.Message
			switch rng.IntN(6) {
			case 0:
				req = &protocol.GetServerList{}
			case 1:
				req = &protocol.SearchUser{Query: []string{"", "a", "AB", "bc_", "zz"}[rng.IntN(5)]}
			case 2:
				var h [16]byte
				if n := snap.NumFiles(); n > 0 && rng.IntN(4) > 0 {
					h = snap.fileHash[rng.IntN(n)]
				}
				req = &protocol.GetSources{Hash: h}
			case 3:
				req = &protocol.SearchRequest{Keyword: []string{"blue", "ECHO", "t001", "mp3", "0003", "nothing"}[rng.IntN(6)]}
			case 4:
				req = &protocol.AskSharedFiles{}
			default:
				req = &protocol.LoginRequest{Nickname: "n"}
			}
			ref, handled := core.Handle(req)
			got, gotHandled := core.AppendReply(prefix, req)
			if gotHandled != handled {
				t.Fatalf("iter %d %T: handled %v, want %v", iter, req, gotHandled, handled)
			}
			want := bytes.NewBuffer(slices.Clone(prefix))
			if handled {
				if err := protocol.WriteMessage(want, ref); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("iter %d %T: AppendReply differs from Handle + WriteMessage\n got %x\nwant %x", iter, req, got, want.Bytes())
			}
		}
	}
}

// scriptConn is a net.Conn that plays a fixed request stream and
// discards the replies: the session loop with no kernel, no pipe and no
// timers under it, so what it allocates is its own.
type scriptConn struct {
	in      bytes.Reader
	written int
}

func (c *scriptConn) Read(p []byte) (int, error)       { return c.in.Read(p) }
func (c *scriptConn) Write(p []byte) (int, error)      { c.written += len(p); return len(p), nil }
func (c *scriptConn) Close() error                     { return nil }
func (c *scriptConn) LocalAddr() net.Addr              { return nil }
func (c *scriptConn) RemoteAddr() net.Addr             { return nil }
func (c *scriptConn) SetDeadline(time.Time) error      { return nil }
func (c *scriptConn) SetReadDeadline(time.Time) error  { return nil }
func (c *scriptConn) SetWriteDeadline(time.Time) error { return nil }

// TestSessionAllocatesNothingPerRequest runs the production session loop
// over a scripted connection: a session of 4000 requests of every class
// must cost exactly the heap objects a session of 400 does — the
// connection's own set-up — so a request costs none.
func TestSessionAllocatesNothingPerRequest(t *testing.T) {
	snap := testSnap()
	hit, kw := someQuery(snap)
	var round []byte
	for _, req := range []protocol.Message{
		&protocol.SearchRequest{Keyword: kw},
		&protocol.GetSources{Hash: hit},
		&protocol.SearchUser{Query: "a"},
		&protocol.GetServerList{},
		&protocol.LoginRequest{Endpoint: protocol.Endpoint{IP: 0x0C000001, Port: 4662}, Nickname: "re", Version: 60},
		&protocol.OfferFiles{Files: []protocol.FileEntry{{Name: "up.mp3", Size: 42}}},
		&protocol.AskSharedFiles{},
		&protocol.Hello{Nickname: "lost"},
	} {
		round, _ = protocol.AppendMessage(round, req)
	}
	srv := New(snap, Config{})
	session := func(rounds int) float64 {
		stream := bytes.Repeat(round, rounds)
		conn := &scriptConn{}
		return testing.AllocsPerRun(5, func() {
			conn.in.Reset(stream)
			conn.written = 0
			srv.ServeConn(conn)
			if conn.written == 0 {
				t.Fatal("session wrote nothing")
			}
		})
	}
	short, long := session(50), session(500)
	if long != short {
		t.Fatalf("a session of 4000 requests allocated %v times, one of 400 %v: %v per request",
			long, short, (long-short)/3600)
	}
	// Buffers, session, reply renderer and the reply buffer's growth.
	if short > 32 {
		t.Fatalf("a session's set-up allocated %v times", short)
	}
}

// maxSessionBytes bounds what one connection makes the server allocate
// over its lifetime beyond its replies: the two bufio buffers (16 + 32
// KB), the session struct and bookkeeping.
const maxSessionBytes = 64 << 10

// TestSessionMemoryIsBounded sends a connection the largest frames the
// server role takes and the ones it refuses: a 4 MB publication is
// skipped in the stream, an oversized query closes the connection before
// it is buffered, and neither makes the server hold or allocate more
// than the constant above.
func TestSessionMemoryIsBounded(t *testing.T) {
	srv := New(testSnap(), Config{})
	big := make([]byte, 6+4<<20)
	big[0], big[5] = protocol.ProtoMarker, protocol.OpOfferFiles
	binary.LittleEndian.PutUint32(big[1:], uint32(len(big)-5))
	publication, _ := protocol.AppendMessage(big, &protocol.GetServerList{})
	hugeQuery, _ := protocol.AppendMessage(nil, &protocol.SearchUser{Query: string(make([]byte, 60000))})
	claimed := []byte{protocol.ProtoMarker, 0, 0, 0, 1, protocol.OpSearchRequest} // 16 MB claimed, nothing sent

	for name, tc := range map[string]struct {
		stream    []byte
		wantReply bool
	}{
		"4 MB publication": {publication, true},
		"60 KB query":      {hugeQuery, false},
		"16 MB claim":      {claimed, false},
	} {
		conn := &scriptConn{}
		conn.in.Reset(tc.stream)
		if got := sessionBytes(srv, conn); got > maxSessionBytes {
			t.Errorf("%s: the session allocated %d bytes, bound %d", name, got, maxSessionBytes)
		}
		if (conn.written > 0) != tc.wantReply {
			t.Errorf("%s: %d reply bytes written, want a reply: %v", name, conn.written, tc.wantReply)
		}

		// The same over a memconn pipe, with a peer that writes the
		// stream, reads the reply if one is due and hangs up. The Write
		// lends the server its slice and the peer reads into its stack,
		// so the bound still holds — for both ends together.
		client, server := memconn.Pipe()
		replied := make(chan int, 1)
		go func() {
			defer client.Close()
			client.SetDeadline(time.Now().Add(30 * time.Second))
			client.Write(tc.stream) // cut short where the server hangs up
			var buf [512]byte
			n, _ := client.Read(buf[:])
			replied <- n
		}()
		if got := sessionBytes(srv, server); got > maxSessionBytes {
			t.Errorf("%s over memconn: the session allocated %d bytes, bound %d", name, got, maxSessionBytes)
		}
		if n := <-replied; (n > 0) != tc.wantReply {
			t.Errorf("%s over memconn: %d reply bytes read, want a reply: %v", name, n, tc.wantReply)
		}
	}
}

// sessionBytes serves conn to its end and returns the heap bytes the
// process allocated meanwhile.
func sessionBytes(srv *Server, conn net.Conn) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	srv.ServeConn(conn)
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
