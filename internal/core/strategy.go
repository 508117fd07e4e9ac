// Package core implements the paper's primary contribution: the semantic
// clustering analysis of peer cache contents and the server-less,
// semantic-neighbour search mechanism evaluated in Section 5.
//
// It provides:
//   - the clustering correlation metric of Fig. 13/14 (probability that
//     two peers sharing n files share an (n+1)-th);
//   - the cache-overlap dynamics of Figs. 15-17;
//   - the semantic neighbour list strategies (LRU, History, Random) of
//     Section 5.2;
//   - the trace-driven request simulator of Section 5.1 with one- and
//     two-hop search, generous-uploader and popular-file ablations,
//     randomized-trace runs, and query-load accounting (Figs. 18-23,
//     Table 3).
package core

import (
	"fmt"
	"math/bits"
	"math/rand/v2"

	"edonkey/internal/trace"
)

// StrategyKind selects a semantic neighbour list management policy.
type StrategyKind int

const (
	// LRU keeps the most recent uploaders, most recent first (the
	// cache-replacement policy suggested in the paper and in Voulgaris
	// et al.).
	LRU StrategyKind = iota
	// History keeps the uploaders with the highest successful-upload
	// counts (the frequency-based policy of Voulgaris et al.).
	History
	// Random keeps a fixed, randomly chosen list of sharing peers; the
	// paper's benchmark for how much of the hit rate popularity alone
	// explains.
	Random
)

// String returns the paper's name for the strategy.
func (k StrategyKind) String() string {
	switch k {
	case LRU:
		return "LRU"
	case History:
		return "History"
	case Random:
		return "Random"
	default:
		return fmt.Sprintf("StrategyKind(%d)", int(k))
	}
}

// Strategy maintains one peer's semantic neighbour list.
type Strategy interface {
	// RecordUpload notes that the given peer served this peer a file,
	// whether it was found via the list or via the fallback search.
	RecordUpload(uploader trace.PeerID)
	// Neighbours returns the current list in query order. The returned
	// slice is owned by the strategy and valid until the next call.
	Neighbours() []trace.PeerID
}

// lruList is the LRU strategy: uploaders move to the head; the tail is
// evicted beyond the capacity.
type lruList struct {
	list []trace.PeerID
	cap  int
}

// NewLRU returns an LRU semantic list with the given capacity.
func NewLRU(capacity int) Strategy {
	return &lruList{cap: capacity}
}

func (l *lruList) RecordUpload(u trace.PeerID) {
	for i, p := range l.list {
		if p == u {
			copy(l.list[1:i+1], l.list[:i])
			l.list[0] = u
			return
		}
	}
	if len(l.list) < l.cap {
		l.list = append(l.list, 0)
	}
	copy(l.list[1:], l.list)
	l.list[0] = u
}

func (l *lruList) Neighbours() []trace.PeerID { return l.list }

// historyList is the frequency-based strategy: it counts successful
// uploads per uploader and exposes the top-capacity uploaders by count.
// The board is kept sorted by count with O(1) amortized bumps; index, an
// open-addressed table of board positions (linear probing, at most half
// full), finds an uploader's entry in O(1).
type historyList struct {
	ids    []trace.PeerID // sorted by count desc, then recency
	counts []int32
	index  []int32 // 0 = empty slot, else board position + 1
	cap    int
}

// NewHistory returns a History semantic list with the given capacity.
func NewHistory(capacity int) Strategy {
	return &historyList{cap: capacity}
}

// historyIndexSize is the smallest power of two that keeps the index of
// a board of n entries at most half full.
func historyIndexSize(n int) int {
	return 1 << bits.Len(uint(2*n-1))
}

// slot returns the index slot holding u, or the empty slot where u
// belongs.
func (h *historyList) slot(u trace.PeerID) int {
	mask := len(h.index) - 1
	for i := int(uint64(u)*0x9E3779B97F4A7C15>>32) & mask; ; i = (i + 1) & mask {
		if e := h.index[i]; e == 0 || h.ids[e-1] == u {
			return i
		}
	}
}

func (h *historyList) RecordUpload(u trace.PeerID) {
	if 2*(len(h.ids)+1) > len(h.index) {
		// Only a standalone list grows: a board the simulator carves is
		// sized for its owner's request count, the most entries it can
		// ever hold.
		h.index = make([]int32, max(4, 2*len(h.index)))
		for i, id := range h.ids {
			h.index[h.slot(id)] = int32(i + 1)
		}
	}
	s := h.slot(u)
	i := int(h.index[s]) - 1
	if i < 0 {
		h.ids = append(h.ids, u)
		h.counts = append(h.counts, 0)
		i = len(h.ids) - 1
	}
	h.counts[i]++
	// Bubble the entry ahead of any entry with a strictly smaller
	// count; equal counts keep their order (older entries stay first).
	for i > 0 && h.counts[i-1] < h.counts[i] {
		h.index[h.slot(h.ids[i-1])] = int32(i + 1)
		h.ids[i-1], h.ids[i] = h.ids[i], h.ids[i-1]
		h.counts[i-1], h.counts[i] = h.counts[i], h.counts[i-1]
		i--
	}
	h.index[s] = int32(i + 1)
}

func (h *historyList) Neighbours() []trace.PeerID {
	if len(h.ids) <= h.cap {
		return h.ids
	}
	return h.ids[:h.cap]
}

// Counts exposes the full history board for tests.
func (h *historyList) Counts() map[trace.PeerID]int {
	out := make(map[trace.PeerID]int, len(h.ids))
	for i, id := range h.ids {
		out[id] = int(h.counts[i])
	}
	return out
}

// NewRandom returns a fixed random list of `capacity` distinct peers
// drawn from the candidate pool (excluding self). If the pool is smaller
// than the capacity the whole pool is used.
func NewRandom(capacity int, self trace.PeerID, pool []trace.PeerID, rng *rand.Rand) Strategy {
	return &fixedList{list: drawRandom(make([]trace.PeerID, 0, capacity), self, pool, rng)}
}

// drawRandom reservoir-samples up to cap(dst) distinct peers of the
// pool, skipping self, into dst.
func drawRandom(dst []trace.PeerID, self trace.PeerID, pool []trace.PeerID, rng *rand.Rand) []trace.PeerID {
	list, capacity := dst[:0], cap(dst)
	seen := 0
	for _, p := range pool {
		if p == self {
			continue
		}
		seen++
		if len(list) < capacity {
			list = append(list, p)
		} else if j := rng.IntN(seen); j < capacity {
			list[j] = p
		}
	}
	return list
}

// fixedList is an immutable neighbour list: a Random draw, or one
// supplied by an external mechanism (e.g. the gossip overlay in
// internal/overlay).
type fixedList struct {
	list []trace.PeerID
}

// NewFixed wraps an externally built neighbour list as a Strategy.
// RecordUpload is a no-op: the list is managed elsewhere.
func NewFixed(list []trace.PeerID) Strategy { return &fixedList{list: list} }

func (f *fixedList) RecordUpload(trace.PeerID) {}

func (f *fixedList) Neighbours() []trace.PeerID { return f.list }
