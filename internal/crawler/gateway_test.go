package crawler

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"edonkey/internal/edonkey"
	"edonkey/internal/protocol"
	"edonkey/internal/serve"
	"edonkey/internal/trace"
	"edonkey/internal/workload"
)

// crawlWith runs a full crawl with the given worker count and an
// optionally lowered user-search reply cap.
func crawlWith(t *testing.T, cfg workload.Config, ccfg Config, workers, cap int) (*trace.Trace, Stats) {
	t.Helper()
	cfg.Workers = workers
	w, err := workload.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(w, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	if cap > 0 {
		c.gateway.maxUserReplies = cap
	}
	tr, err := c.Run(cfg.Days)
	if err != nil {
		t.Fatal(err)
	}
	return tr, c.Stats
}

func requireTracesEqual(t *testing.T, want, got *trace.Trace, label string) {
	t.Helper()
	wantFiles, _ := want.Files()
	gotFiles, _ := got.Files()
	if !reflect.DeepEqual(wantFiles, gotFiles) {
		t.Fatalf("%s: file tables differ", label)
	}
	wantPeers, _ := want.Peers()
	gotPeers, _ := got.Peers()
	if !reflect.DeepEqual(wantPeers, gotPeers) {
		t.Fatalf("%s: peer tables differ", label)
	}
	if len(want.Days) != len(got.Days) {
		t.Fatalf("%s: day counts differ", label)
	}
	for i := range want.Days {
		if !want.Days[i].Equal(got.Days[i]) {
			t.Fatalf("%s: day index %d differs", label, i)
		}
	}
}

// The gateway-served crawl must be bit-identical for any worker count —
// the acceptance guarantee behind `edcrawl -workers`. The world side was
// already pinned; this covers the full wire path (discovery order,
// identity numbering, budget selection) end to end.
func TestCrawlDeterministicAcrossWorkers(t *testing.T) {
	cfg := crawlWorldConfig(31)
	want, wantStats := crawlWith(t, cfg, DefaultConfig(), 1, 0)
	for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
		got, gotStats := crawlWith(t, cfg, DefaultConfig(), workers, 0)
		if wantStats != gotStats {
			t.Fatalf("workers=%d: stats diverge: %+v vs %+v", workers, gotStats, wantStats)
		}
		requireTracesEqual(t, want, got, "crawl")
	}
}

// At population scale the 200-user reply cap truncates most nickname
// buckets — the paper's discovery bias. Unlike the boxed server (Go map
// order decided who fell off the end of a capped reply), the gateway
// enumerates users in nickname order, so even heavily truncated crawls
// are reproducible: same discovered subset, same trace, run after run
// and for any worker count.
func TestTruncatedDiscoveryIsDeterministic(t *testing.T) {
	cfg := crawlWorldConfig(32)
	// A one-letter sweep packs ~6 users into each query bucket; a cap of
	// 2 then truncates every reply, exactly like 200 does at 1M peers.
	ccfg := Config{PrefixLen: 1}
	const lowCap = 2
	want, wantStats := crawlWith(t, cfg, ccfg, 1, lowCap)
	oracle, _, err := workload.Collect(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want.ObservedPeers() >= oracle.ObservedPeers() {
		t.Fatalf("capped crawl saw %d peers, oracle %d — expected a strict loss",
			want.ObservedPeers(), oracle.ObservedPeers())
	}
	for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
		got, gotStats := crawlWith(t, cfg, ccfg, workers, lowCap)
		if wantStats != gotStats {
			t.Fatalf("workers=%d: truncated-crawl stats diverge", workers)
		}
		requireTracesEqual(t, want, got, "truncated crawl")
	}
}

// serve.SnapshotFromWorld promises that a query answered from the frozen
// day matches one answered by the gateway over the same world day. Both
// read who is logged in, and under which ID, off one replay of the login
// sequence; this pins what each makes of it — the gateway's per-client
// flags behind a nickname permutation, the snapshot's sorted user
// columns — reply byte for reply byte, on two consecutive days, at the
// real cap and at one low enough that truncation order is covered.
func TestGatewayAndSnapshotAnswerAlike(t *testing.T) {
	w, err := workload.New(crawlWorldConfig(35))
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(w, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	g := c.gateway
	requests := []protocol.Message{&protocol.GetServerList{}, &protocol.SearchUser{}}
	const letters = "abcdefghijklmnopqrstuvwxyz"
	for _, a := range letters {
		requests = append(requests, &protocol.SearchUser{Query: string(a)})
		for _, b := range letters {
			requests = append(requests, &protocol.SearchUser{Query: string(a) + string(b)})
		}
	}
	for day := 0; day < 2; day++ {
		if day > 0 {
			w.Step()
		}
		g.beginDay(day)
		snap := serve.SnapshotFromWorld(w, day)
		for _, limit := range []int{edonkey.DefaultMaxUserReplies, 3} {
			gateway, frozen := g.core(), g.core()
			gateway.MaxUserReplies, frozen.MaxUserReplies = limit, limit
			frozen.Dir = snap
			var want, got []byte
			var users, lowID, truncated int
			for _, req := range requests {
				want, _ = gateway.AppendReply(want[:0], req)
				got, _ = frozen.AppendReply(got[:0], req)
				if !bytes.Equal(want, got) {
					t.Fatalf("day %d, limit %d, %#v: the snapshot's reply differs from the gateway's", day, limit, req)
				}
				m, err := protocol.ReadMessage(bytes.NewReader(got))
				if err != nil {
					t.Fatal(err)
				}
				if res, ok := m.(*protocol.SearchUserResult); ok && req.(*protocol.SearchUser).Query != "" {
					users += len(res.Users)
					if len(res.Users) == limit {
						truncated++
					}
					for _, u := range res.Users {
						if u.ClientID < protocol.LowIDThreshold {
							lowID++
						}
					}
				}
			}
			if users == 0 || lowID == 0 || lowID == users {
				t.Fatalf("day %d, limit %d: %d users listed, %d of them low-ID: the world exercises nothing", day, limit, users, lowID)
			}
			if limit == 3 && truncated == 0 {
				t.Fatalf("day %d: no reply reached a limit of %d", day, limit)
			}
		}
	}
}

// entriesFor is the browse rendering appendSharedFiles replaced, kept as
// its oracle: one FileEntry per cached file, names as strings.
func entriesFor(w *workload.World, i int) []protocol.FileEntry {
	files, _ := w.CacheView(i)
	out := make([]protocol.FileEntry, 0, len(files))
	for _, fi := range files {
		out = append(out, protocol.FileEntry{
			Hash: w.FileHash(int(fi)),
			Size: uint64(w.FileSize(int(fi))),
			Name: w.FileName(int(fi)),
			Type: w.FileKind(int(fi)).String(),
		})
	}
	return out
}

// The browse answer rendered straight from the columns is the frame
// AppendMessage makes of the materialized entries, for every client —
// appended after whatever the buffer held — and costs no heap object
// once the buffer has grown.
func TestBrowseFrameMatchesMaterializedAnswer(t *testing.T) {
	w, err := workload.New(crawlWorldConfig(34))
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(w, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	g := c.gateway
	nonEmpty := 0
	var buf []byte
	for i := 0; i < w.NumClients(); i++ {
		want, err := protocol.AppendMessage([]byte("head"), &protocol.SharedFilesAnswer{Files: entriesFor(w, i)})
		if err != nil {
			t.Fatal(err)
		}
		buf = g.appendSharedFiles(append(buf[:0], "head"...), i)
		if !bytes.Equal(buf, want) {
			t.Fatalf("client %d: rendered browse frame differs from the materialized answer", i)
		}
		if w.CacheSize(i) == 0 {
			continue
		}
		nonEmpty++
		if n := testing.AllocsPerRun(10, func() { buf = g.appendSharedFiles(buf[:0], i) }); n != 0 {
			t.Fatalf("client %d: rendering %d entries allocated %v times", i, w.CacheSize(i), n)
		}
	}
	if nonEmpty == 0 {
		t.Fatal("no client shares anything")
	}
}
