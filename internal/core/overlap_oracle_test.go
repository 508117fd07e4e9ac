package core

import (
	"math/rand/v2"
	"slices"
	"testing"

	"edonkey/internal/runner"
	"edonkey/internal/trace"
)

// pairOverlapsMap is the pre-tracestore implementation of PairOverlaps,
// kept verbatim as the reference PairOverlaps is tested against: invert
// through a hash map, then count every co-occurrence into a map of
// packed pair keys.
func pairOverlapsMap(caches [][]trace.FileID, filter FileFilter) map[uint64]int32 {
	holders := make(map[trace.FileID][]trace.PeerID)
	for pid, cache := range caches {
		for _, f := range cache {
			if filter != nil && !filter(f) {
				continue
			}
			holders[f] = append(holders[f], trace.PeerID(pid))
		}
	}
	pairs := make(map[uint64]int32)
	for _, hs := range holders {
		for i := 0; i < len(hs); i++ {
			for j := i + 1; j < len(hs); j++ {
				pairs[PairKey(hs[i], hs[j])]++
			}
		}
	}
	return pairs
}

// benchCaches generates a deterministic heavy-tailed population: cache
// sizes geometric-ish, file choice Zipf-like so popular files have long
// holder lists (the regime where the pair enumeration is hot).
func benchCaches(peers int) [][]trace.FileID {
	rng := rand.New(rand.NewPCG(uint64(peers), 0xbe9c))
	numFiles := peers * 10
	zipf := func() trace.FileID {
		// Inverse-CDF sampling of a rough power law over file ranks.
		u := rng.Float64()
		rank := int(float64(numFiles) * u * u * u)
		if rank >= numFiles {
			rank = numFiles - 1
		}
		return trace.FileID(rank)
	}
	caches := make([][]trace.FileID, peers)
	for p := range caches {
		if rng.Float64() < 0.7 {
			continue // free-rider
		}
		size := 4 + rng.IntN(60)
		if rng.Float64() < 0.05 {
			size *= 8 // collector
		}
		seen := make(map[trace.FileID]bool, size)
		for len(seen) < size {
			seen[zipf()] = true
		}
		c := make([]trace.FileID, 0, size)
		for f := range seen {
			c = append(c, f)
		}
		slices.Sort(c)
		caches[p] = c
	}
	return caches
}

// The sharded enumeration must agree with the serial one on the
// heavy-tailed population for every pool size, order included.
func TestShardedPairOverlapMatchesSerial(t *testing.T) {
	caches := benchCaches(1500)
	sn := SnapshotFromCaches(caches)
	type triple struct {
		a, b trace.PeerID
		n    int32
	}
	var want []triple
	ForEachPairOverlapSnapshot(sn, nil, func(a, b trace.PeerID, n int32) {
		want = append(want, triple{a, b, n})
	})
	for _, workers := range []int{1, 2, 4, 7} {
		shards := ShardedPairOverlap(sn, nil, runner.New(workers),
			func() *[]triple { return &[]triple{} },
			func(sh *[]triple, a, b trace.PeerID, n int32) { *sh = append(*sh, triple{a, b, n}) })
		var got []triple
		for _, sh := range shards {
			got = append(got, *sh...)
		}
		if len(got) != len(want) {
			t.Fatalf("workers %d: %d triples, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers %d: triple %d = %+v, want %+v", workers, i, got[i], want[i])
			}
		}
	}
}

// The baseline and the store enumeration must agree bug-for-bug on the
// heavy-tailed population (and on the histogram the analyses consume).
func TestPairOverlapMatchesMapBaseline(t *testing.T) {
	caches := benchCaches(1500)
	want := pairOverlapsMap(caches, nil)
	got := PairOverlaps(caches, nil)
	if len(got) != len(want) {
		t.Fatalf("pair count %d, want %d", len(got), len(want))
	}
	for k, n := range want {
		if got[k] != n {
			a, bb := SplitPairKey(k)
			t.Fatalf("pair (%d,%d) = %d, want %d", a, bb, got[k], n)
		}
	}
}
