package serve

import (
	"bufio"
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"testing"

	"edonkey/internal/protocol"
)

// BenchmarkServeTCP measures the serving path over real loopback TCP: a
// small connection fleet issues the trace-style query mix (nickname
// sweeps, keyword searches, source queries, the occasional re-login)
// against a frozen world day. depth=1 is synchronous request-reply;
// depth=16 pipelines bursts, the shape where reply coalescing pays. The
// queried hash and keyword are fixed by someQuery, so runs compare. The
// gated extra is ns/query (anchor-normalized wall clock); queries/sec is
// informational. Client and server share the process, so allocs/op here
// is mostly the driver decoding replies; bench/ isolates the server.
func BenchmarkServeTCP(b *testing.B) {
	snap := testSnap()
	someHash, kw := someQuery(snap)
	const conns = 8
	for _, depth := range []int{1, 16} {
		b.Run(fmt.Sprintf("conns=%d/depth=%d", conns, depth), func(b *testing.B) {
			benchServeTCP(b, snap, conns, depth, someHash, kw)
		})
	}
}

func benchServeTCP(b *testing.B, snap *Snapshot, conns, depth int, someHash [16]byte, kw string) {
	srv := New(snap, Config{MaxConns: conns + 1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	go srv.Serve(ln)

	clients := make([]net.Conn, conns)
	for i := range clients {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		clients[i] = c
		login := &protocol.LoginRequest{
			Endpoint: protocol.Endpoint{IP: uint32(0x0C000000 + i), Port: 4662},
			Nickname: fmt.Sprintf("bench_%02d", i),
			Version:  60,
		}
		if err := protocol.WriteMessage(c, login); err != nil {
			b.Fatal(err)
		}
		if _, err := protocol.ReadMessage(c); err != nil {
			b.Fatal(err)
		}
	}

	b.ResetTimer()
	var wg sync.WaitGroup
	errc := make(chan error, conns)
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c net.Conn) {
			defer wg.Done()
			errc <- driveConn(c, i, b.N/conns, depth, someHash, kw)
		}(i, c)
	}
	wg.Wait()
	b.StopTimer()
	close(errc)
	for err := range errc {
		if err != nil {
			b.Fatal(err)
		}
	}
	queries := float64((b.N / conns) * conns)
	if queries > 0 {
		elapsed := b.Elapsed()
		b.ReportMetric(float64(elapsed.Nanoseconds())/queries, "ns/query")
		b.ReportMetric(queries/elapsed.Seconds(), "queries/sec")
	}
}

// benchRequest draws one request from the mix.
func benchRequest(rng *rand.Rand, id int, someHash [16]byte, kw string) protocol.Message {
	switch x := rng.IntN(100); {
	case x < 40:
		return &protocol.SearchRequest{Keyword: kw}
	case x < 70:
		return &protocol.GetSources{Hash: someHash}
	case x < 90:
		return &protocol.SearchUser{Query: string(rune('a' + rng.IntN(26)))}
	case x < 95:
		return &protocol.GetServerList{}
	default:
		return &protocol.LoginRequest{Endpoint: protocol.Endpoint{IP: uint32(0x0C000000 + id), Port: 4662}, Nickname: "re", Version: 60}
	}
}

// driveConn issues n mixed queries on one connection in bursts of
// depth: write depth requests, then read their depth replies.
func driveConn(conn net.Conn, id, n, depth int, someHash [16]byte, kw string) error {
	rng := rand.New(rand.NewPCG(uint64(id), 42))
	bw := bufio.NewWriterSize(conn, 32<<10)
	br := bufio.NewReaderSize(conn, 32<<10)
	for done := 0; done < n; {
		burst := min(depth, n-done)
		for k := 0; k < burst; k++ {
			if err := protocol.WriteMessage(bw, benchRequest(rng, id, someHash, kw)); err != nil {
				return err
			}
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		for k := 0; k < burst; k++ {
			if _, err := protocol.ReadMessage(br); err != nil {
				return err
			}
		}
		done += burst
	}
	return nil
}
