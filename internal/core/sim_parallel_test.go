package core

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"runtime"
	"testing"

	"edonkey/internal/runner"
	"edonkey/internal/trace"
)

// skewedCaches builds an overlapping population with Zipf-like file
// popularity and heavy-tailed cache sizes — deliberately collision-heavy
// input for the sharded event loop (popular files appear in many caches,
// so speculative chunks hit the same-file invalidation path often).
func skewedCaches(peers, files, meanCache int, seed uint64) [][]trace.FileID {
	rng := rand.New(rand.NewPCG(seed, 0))
	caches := make([][]trace.FileID, peers)
	for p := range caches {
		n := 1 + rng.IntN(2*meanCache)
		if rng.IntN(10) == 0 {
			n *= 4 // a few collectors
		}
		seen := make(map[trace.FileID]bool, n)
		for len(seen) < n {
			// Quadratic rank skew: low file IDs are far more popular.
			r := rng.Float64()
			seen[trace.FileID(int(r*r*float64(files)))] = true
		}
		cache := make([]trace.FileID, 0, len(seen))
		for f := range seen {
			cache = append(cache, f)
		}
		caches[p] = cache
	}
	// One in eight peers is a free-rider with an empty cache.
	for p := 0; p < peers; p += 8 {
		caches[p] = nil
	}
	for _, c := range caches {
		sortFileIDs(c)
	}
	return caches
}

func sortFileIDs(c []trace.FileID) {
	for i := 1; i < len(c); i++ {
		for j := i; j > 0 && c[j] < c[j-1]; j-- {
			c[j], c[j-1] = c[j-1], c[j]
		}
	}
}

// TestRunSimShardedMatchesSerial pins the sharded event loop to the
// serial one, bit for bit, across worker counts, strategies, hop modes,
// load tracking and ablations. reflect.DeepEqual covers every result
// field including LoadPerPeer; hits and messages depend on the exact
// evolution of every semantic list, so equality here pins the list
// outcomes too.
func TestRunSimShardedMatchesSerial(t *testing.T) {
	caches := skewedCaches(400, 2500, 20, 5)
	fixed := make([][]trace.PeerID, len(caches))
	for p := range fixed {
		for k := 1; k <= 4; k++ {
			fixed[p] = append(fixed[p], trace.PeerID((p+k*37)%len(caches)))
		}
	}
	variants := []SimOptions{
		{ListSize: 5, Kind: LRU, Seed: 11},
		{ListSize: 8, Kind: History, Seed: 12, TrackLoad: true},
		{ListSize: 6, Kind: Random, Seed: 13},
		{ListSize: 5, Kind: LRU, Seed: 14, TwoHop: true, TrackLoad: true},
		{ListSize: 4, Kind: History, Seed: 15, TwoHop: true},
		{ListSize: 5, Kind: LRU, Seed: 16, DropTopUploaders: 0.1, DropTopFiles: 0.1},
		{ListSize: 4, Seed: 17, FixedLists: fixed, TwoHop: true},
	}
	for vi, opt := range variants {
		want := RunSim(caches, opt) // nil pool: the serial loop
		if want.Requests == 0 || want.Hits == 0 {
			t.Fatalf("variant %d: degenerate reference run %+v", vi, want)
		}
		for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
			t.Run(fmt.Sprintf("variant=%d/workers=%d", vi, workers), func(t *testing.T) {
				opt := opt
				opt.Pool = runner.New(workers)
				got := RunSim(caches, opt)
				if !reflect.DeepEqual(want, got) {
					t.Errorf("sharded run diverged:\nserial  %+v\nsharded %+v", want, got)
				}
			})
		}
	}
}

// TestRunSimShardedLoadPerPeer pins the tracked per-peer query load of a
// sharded run element-wise against the serial run.
func TestRunSimShardedLoadPerPeer(t *testing.T) {
	caches := skewedCaches(300, 1500, 15, 9)
	opt := SimOptions{ListSize: 6, Kind: LRU, Seed: 21, TwoHop: true, TrackLoad: true}
	want := RunSim(caches, opt)
	opt.Pool = runner.New(4)
	got := RunSim(caches, opt)
	if !reflect.DeepEqual(want.LoadPerPeer, got.LoadPerPeer) {
		for i := range want.LoadPerPeer {
			if want.LoadPerPeer[i] != got.LoadPerPeer[i] {
				t.Fatalf("LoadPerPeer[%d]: serial %d sharded %d",
					i, want.LoadPerPeer[i], got.LoadPerPeer[i])
			}
		}
	}
	var sum int64
	for _, l := range got.LoadPerPeer {
		sum += l
	}
	if sum != got.Messages {
		t.Fatalf("load sum %d != messages %d", sum, got.Messages)
	}
}

// TestRunSweepShardsPoints confirms a sweep hands its pool down to every
// point (the single-point scaling path) without changing results.
func TestRunSweepShardsPoints(t *testing.T) {
	caches := skewedCaches(200, 1000, 12, 3)
	opts := []SimOptions{
		{ListSize: 5, Kind: LRU, Seed: 1},
		{ListSize: 10, Kind: History, Seed: 1},
	}
	want := []SimResult{RunSim(caches, opts[0]), RunSim(caches, opts[1])}
	got := RunSweep(caches, opts, runner.New(runtime.GOMAXPROCS(0)))
	if !reflect.DeepEqual(want, got) {
		t.Errorf("sweep with pooled points diverged:\nserial %+v\nsweep  %+v", want, got)
	}
}
