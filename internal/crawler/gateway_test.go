package crawler

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"edonkey/internal/protocol"
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

// The publish-backed queries (source lookup, keyword search) must answer
// from the live world on every day — including files released after the
// first query built the hash index.
func TestGatewayPublishQueries(t *testing.T) {
	cfg := crawlWorldConfig(33)
	w, err := workload.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(w, Config{PrefixLen: 2, PublishFiles: true})
	if err != nil {
		t.Fatal(err)
	}
	g := c.gateway

	// sharedFile returns a catalogue file some logged-in client shares,
	// released no earlier than minRelease.
	sharedFile := func(minRelease int) int32 {
		for i := 0; i < w.NumClients(); i++ {
			if !g.participating[i] {
				continue
			}
			files, _ := w.CacheView(i)
			for _, fi := range files {
				if w.FileRelease(int(fi)) >= minRelease {
					return fi
				}
			}
		}
		t.Fatalf("no shared file released at day >= %d", minRelease)
		return -1
	}
	query := func(fi int32) (sources int, found bool) {
		g.ForEachSource(w.FileHash(int(fi)), func(protocol.Endpoint) bool {
			sources++
			return true
		})
		// Keyword search by the file's topic token must include it too.
		tok := fmt.Sprintf("t%03d", w.FileTopic(int(fi)))
		g.ForEachFile(tok, func(f protocol.FileEntry) bool {
			if f.Hash == w.FileHash(int(fi)) {
				if int(f.Availability) != sources {
					t.Fatalf("availability %d != %d sources", f.Availability, sources)
				}
				found = true
			}
			return true
		})
		return sources, found
	}

	g.beginDay(0)
	fi0 := sharedFile(-90)
	if n, ok := query(fi0); n == 0 || !ok {
		t.Fatalf("day 0: file %d not served (sources %d, in search %v)", fi0, n, ok)
	}

	// Advance a day; a file released on day 1 enters caches after the
	// index was first built, and must still be served.
	w.Step()
	g.beginDay(1)
	fi1 := sharedFile(1)
	if n, ok := query(fi1); n == 0 || !ok {
		t.Fatalf("day 1: freshly released file %d not served (sources %d, in search %v)", fi1, n, ok)
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
