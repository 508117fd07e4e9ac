package crawler

import (
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"edonkey/internal/edonkey"
	"edonkey/internal/protocol"
	"edonkey/internal/testenv"
	"edonkey/internal/workload"
)

// dayOneGateway builds a small world, puts a crawler's gateway in front
// of it with day 0 begun, and returns the crawler, a client on its
// network to dial from, and the endpoint of the first client that is
// reachable, allows browsing and shares something.
func dayOneGateway(t testing.TB, seed uint64) (*Crawler, *edonkey.Client, protocol.Endpoint) {
	t.Helper()
	w, err := workload.New(crawlWorldConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(w, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	g := c.gateway
	g.beginDay(0)
	me := edonkey.NewClient(c.network, [16]byte{0xCA, 0x11}, crawlerEndpoint, "crawler")
	for i := 0; i < w.NumClients(); i++ {
		ip, _ := w.IdentityAt(i, 0)
		ep := protocol.Endpoint{IP: ip, Port: workload.ClientPort(i)}
		if owner, ok := g.epOwner[ep]; ok && int(owner) == i && w.BrowseOK(i) && w.CacheSize(i) > 0 {
			return c, me, ep
		}
	}
	t.Fatal("no browsable client shares anything on day 0")
	return nil, nil, protocol.Endpoint{}
}

// The tier-1 twin of the benchmark's allocs_per_op on crawl: one browse
// dial against a gateway-served client — pipe, handshake, browse, both
// ends — into an arena with room costs the pipe and nothing else: the
// dialler reads both replies into the arena and the handler renders
// them in its pooled chunk.
func TestBrowseDialAllocs(t *testing.T) {
	if testenv.Race() {
		t.Skip("sync.Pool sheds what the gateway recycles under the race detector")
	}
	_, me, target := dayOneGateway(t, 41)
	// A handler that has seen its dialler hang up waits its turn behind
	// the next dials, which hand the processor to each other directly for
	// a whole time slice — and AllocsPerRun measures on one processor, so
	// back-to-back dials would be charged for a hundred parked handlers'
	// readers and alarms. The yield lets each handler give its share back
	// before the next dial: what is pinned is the exchange.
	arena := make([]byte, 0, 64<<10)
	browse := func() {
		if _, err := me.BrowseList(target, arena); err != nil {
			t.Fatal(err)
		}
		runtime.Gosched()
	}
	for range 100 {
		browse() // fill the pools
	}
	if n := testing.AllocsPerRun(300, browse); n > 1 {
		t.Errorf("a browse dial allocates %v objects, want at most 1 (the pipe)", n)
	}
}

// waitForGoroutines waits, for a bounded time, until no more than limit
// goroutines are left.
func waitForGoroutines(t *testing.T, limit int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > limit {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running after 5 s, want at most %d", runtime.NumGoroutine(), limit)
		}
		time.Sleep(time.Millisecond)
	}
}

// BenchmarkBrowseDial is the per-dial layer of the crawl on its own: one
// dial, handshake and browse against the gateway.
func BenchmarkBrowseDial(b *testing.B) {
	_, me, target := dayOneGateway(b, 41)
	b.ReportAllocs()
	b.ResetTimer()
	arena := make([]byte, 0, 64<<10)
	for i := 0; i < b.N; i++ {
		if _, err := me.BrowseList(target, arena); err != nil {
			b.Fatal(err)
		}
	}
}

// Handlers must not outlive their dials: when Run returns, every
// goroutine the crawl started is gone or on its way out.
func TestCrawlLeavesNoGoroutines(t *testing.T) {
	cfg := crawlWorldConfig(42)
	cfg.Workers = 4
	w, err := workload.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(w, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	if _, err := c.Run(cfg.Days); err != nil {
		t.Fatal(err)
	}
	if c.Stats.Snapshots == 0 {
		t.Fatal("empty crawl")
	}
	waitForGoroutines(t, before)
}

// The gateway's replies go through the same deadline helper as the
// client's requests: a crawl with the bound lifted is the crawl.
func TestCrawlWithoutDialTimeout(t *testing.T) {
	cfg := crawlWorldConfig(43)
	want, wantStats := crawlWith(t, cfg, DefaultConfig(), 2, 0)
	for _, timeout := range []time.Duration{0, -time.Second} {
		cfg.Workers = 2
		w, err := workload.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c, err := New(w, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		c.network.DialTimeout = timeout
		got, err := c.Run(cfg.Days)
		if err != nil {
			t.Fatalf("DialTimeout %v: %v", timeout, err)
		}
		if c.Stats != wantStats {
			t.Fatalf("DialTimeout %v: stats %+v, want %+v", timeout, c.Stats, wantStats)
		}
		requireTracesEqual(t, want, got, "crawl without a dial timeout")
	}
}

// rawExchange writes frame to conn and reads one reply frame.
func rawExchange(t *testing.T, conn net.Conn, frame []byte) (protocol.Message, error) {
	t.Helper()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write(frame); err != nil {
		return nil, err
	}
	return protocol.ReadMessage(conn)
}

// The gateway reads as a server reads: requests only, each kind within
// its payload cap. Anything else ends the session without an answer.
func TestGatewayRefusesWhatAServerRefuses(t *testing.T) {
	c, me, target := dayOneGateway(t, 44)
	frameOf := func(m protocol.Message) []byte {
		frame, err := protocol.AppendMessage(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		return frame
	}
	hello := &protocol.Hello{UserHash: [16]byte{1}, Endpoint: crawlerEndpoint, Nickname: "crawler"}
	fat := *hello
	fat.Nickname = strings.Repeat("n", 600) // past the 512-byte handshake cap

	for _, ep := range []protocol.Endpoint{target, serverEndpoint} {
		for name, frame := range map[string][]byte{
			"oversized handshake":  frameOf(&fat),
			"oversized query":      frameOf(&protocol.SearchUser{Query: strings.Repeat("q", 300)}),
			"a reply, not request": frameOf(&protocol.HelloAnswer{Nickname: "x"}),
			"unknown opcode":       {protocol.ProtoMarker, 1, 0, 0, 0, 0xEE},
		} {
			conn, err := c.network.Dial(ep)
			if err != nil {
				t.Fatal(err)
			}
			if reply, err := rawExchange(t, conn, frame); err != io.EOF && err != io.ErrClosedPipe {
				t.Errorf("%v, %s: got reply %T, err %v; want the connection closed", ep, name, reply, err)
			}
			conn.Close()
		}
	}

	// What is a request but not one this tier answers still gets its
	// Reject, on both tiers.
	for _, tc := range []struct {
		ep     protocol.Endpoint
		frame  []byte
		reason string
	}{
		{target, frameOf(&protocol.GetServerList{}), "unsupported"},
		{target, frameOf(&protocol.OfferFiles{Files: []protocol.FileEntry{{Name: "a.mp3"}}}), "unsupported"},
		{serverEndpoint, frameOf(hello), "unsupported request"},
		{serverEndpoint, frameOf(&protocol.AskSharedFiles{}), "unsupported request"},
	} {
		conn, err := c.network.Dial(tc.ep)
		if err != nil {
			t.Fatal(err)
		}
		reply, err := rawExchange(t, conn, tc.frame)
		if r, ok := reply.(*protocol.Reject); !ok || r.Reason != tc.reason {
			t.Errorf("%v: reply %#v, err %v; want Reject %q", tc.ep, reply, err, tc.reason)
		}
		conn.Close()
	}

	// Nobody publishes to the gateway: a source or keyword query gets the
	// well-formed empty answer of an index that holds nothing, even for
	// a file and a topic the target shares.
	shared, err := me.Browse(target)
	if err != nil || len(shared) == 0 {
		t.Fatalf("browse of the target: %d files, err %v", len(shared), err)
	}
	conn, err := c.network.Dial(serverEndpoint)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	reply, err := rawExchange(t, conn, frameOf(&protocol.GetSources{Hash: shared[0].Hash}))
	if r, ok := reply.(*protocol.FoundSources); !ok || r.Hash != shared[0].Hash || len(r.Sources) != 0 {
		t.Errorf("GetSources: reply %#v, err %v; want FoundSources for the hash with no source", reply, err)
	}
	keyword := protocol.Tokenize(shared[0].Name)[0]
	reply, err = rawExchange(t, conn, frameOf(&protocol.SearchRequest{Keyword: keyword}))
	if r, ok := reply.(*protocol.SearchResult); !ok || len(r.Files) != 0 {
		t.Errorf("SearchRequest %q: reply %#v, err %v; want an empty SearchResult", keyword, reply, err)
	}
}

// A wire login's nickname is kept past the request it arrived in: the
// decoder's strings live in a buffer the next request overwrites.
func TestGatewayKeepsLoginNickname(t *testing.T) {
	c, _, _ := dayOneGateway(t, 45)
	conn, err := c.network.Dial(serverEndpoint)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	login, _ := protocol.AppendMessage(nil, &protocol.LoginRequest{
		UserHash: [16]byte{0xEE}, Endpoint: crawlerEndpoint, Nickname: "zzz_visitor", Version: 60,
	})
	if reply, err := rawExchange(t, conn, login); err != nil {
		t.Fatalf("login: %T, %v", reply, err)
	}
	// A request long enough to overwrite every byte the login occupied.
	noise, _ := protocol.AppendMessage(nil, &protocol.SearchRequest{Keyword: strings.Repeat("#", 200)})
	if _, err := rawExchange(t, conn, noise); err != nil {
		t.Fatal(err)
	}
	search, _ := protocol.AppendMessage(nil, &protocol.SearchUser{Query: "zzz_v"})
	reply, err := rawExchange(t, conn, search)
	if err != nil {
		t.Fatal(err)
	}
	res, ok := reply.(*protocol.SearchUserResult)
	if !ok || len(res.Users) != 1 || res.Users[0].Nickname != "zzz_visitor" {
		t.Fatalf("user search after the login = %#v, want the one session zzz_visitor", reply)
	}
}
