package core

import (
	"edonkey/internal/runner"
	"edonkey/internal/stats"
	"edonkey/internal/trace"
	"edonkey/internal/tracestore"
)

// FileFilter restricts which files count toward pairwise overlap. A nil
// FileFilter counts every file.
type FileFilter func(trace.FileID) bool

// KindPopularityFilter builds the filter used in Fig. 13's audio curves:
// files of the given kind (or any kind if kind == nil) whose popularity
// (distinct source count) lies in [minPop, maxPop].
func KindPopularityFilter(t *trace.Trace, kind *trace.FileKind, minPop, maxPop int) FileFilter {
	sources := t.SourcesPerFile()
	return func(f trace.FileID) bool {
		if kind != nil && t.FileKind(f) != *kind {
			return false
		}
		n := sources[f]
		return n >= minPop && n <= maxPop
	}
}

// PopularityFilter restricts to files whose source count (in the provided
// popularity vector) equals pop — the Fig. 14 middle/right panels use
// popularity 3 and 5.
func PopularityFilter(sources []int, pop int) FileFilter {
	return func(f trace.FileID) bool {
		return int(f) < len(sources) && sources[f] == pop
	}
}

// PairKey packs an (a < b) peer pair into one map key.
func PairKey(a, b trace.PeerID) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(a)<<32 | uint64(b)
}

// SplitPairKey is the inverse of PairKey.
func SplitPairKey(k uint64) (a, b trace.PeerID) {
	return trace.PeerID(k >> 32), trace.PeerID(k & 0xFFFFFFFF)
}

// ForEachPairOverlap calls yield once per unordered peer pair (a < b)
// with at least one (filtered) file in common, passing the number of
// common filtered files. Peers are the indices of caches; caches must be
// sorted (trace.AggregateCaches, store snapshot rows and Snapshot caches
// all satisfy this). The slices are first encoded into a columnar
// snapshot; callers already holding one (a store day or aggregate)
// should use ForEachPairOverlapSnapshot to skip that copy.
func ForEachPairOverlap(caches [][]trace.FileID, filter FileFilter, yield func(a, b trace.PeerID, n int32)) {
	ForEachPairOverlapSnapshot(SnapshotFromCaches(caches), filter, yield)
}

// ForEachPairOverlapSnapshot runs the pair enumeration directly on an
// existing columnar snapshot (reusing its cached inverted index),
// evaluating the filter once per file id (filters are pure functions of
// the FileID). No hash sets are built per pair; see
// tracestore.ForEachOverlap for the algorithm and its determinism.
func ForEachPairOverlapSnapshot(sn *trace.StoreSnapshot, filter FileFilter, yield func(a, b trace.PeerID, n int32)) {
	var keep []bool
	if filter != nil {
		keep = make([]bool, sn.NumVals())
		for f := range keep {
			keep[f] = filter(trace.FileID(f))
		}
	}
	tracestore.ForEachOverlap(sn, keep, yield)
}

// SnapshotFromCaches encodes dense per-peer caches (sorted FileIDs) as a
// columnar snapshot, the entry ticket for the snapshot-based enumeration
// and its sharded variant.
func SnapshotFromCaches(caches [][]trace.FileID) *trace.StoreSnapshot {
	return tracestore.FromRows[trace.PeerID, trace.FileID](0, caches, nil, 0)
}

// ShardedPairOverlap is ForEachPairOverlapSnapshot with the outer
// per-peer loop sharded over the pool (ROADMAP "Parallel pair
// enumeration"): newShard builds one private consumer state per shard,
// visit observes one overlapping pair, and the states come back in
// ascending peer order. Concatenating them in order reproduces the
// serial enumeration sequence exactly, so any cut-insensitive merge
// (integer counters, histograms, ordered appends) is bit-identical for
// every worker count.
func ShardedPairOverlap[S any](sn *trace.StoreSnapshot, filter FileFilter, pool *runner.Pool,
	newShard func() S, visit func(shard S, a, b trace.PeerID, n int32)) []S {
	var keep []bool
	if filter != nil {
		keep = make([]bool, sn.NumVals())
		for f := range keep {
			keep[f] = filter(trace.FileID(f))
		}
	}
	return tracestore.OverlapSharded(sn, keep, pool, newShard, visit)
}

// OverlapHistogramSharded is OverlapHistogramSnapshot computed on the
// pool: per-shard histograms merged in shard order, bit-identical to the
// serial result for any worker count.
func OverlapHistogramSharded(sn *trace.StoreSnapshot, filter FileFilter, pool *runner.Pool) *stats.Histogram {
	shards := ShardedPairOverlap(sn, filter, pool,
		stats.NewHistogram,
		func(h *stats.Histogram, _, _ trace.PeerID, n int32) { h.Add(int(n)) })
	out := shards[0]
	for _, h := range shards[1:] {
		out.Merge(h)
	}
	return out
}

// ClusteringCorrelationSharded is ClusteringCorrelation on an existing
// columnar snapshot, on the pool — the form the clustering figures (13,
// 14) use.
func ClusteringCorrelationSharded(sn *trace.StoreSnapshot, filter FileFilter, pool *runner.Pool) []CorrelationPoint {
	return CorrelationCurve(OverlapHistogramSharded(sn, filter, pool))
}

// PairOverlaps materializes ForEachPairOverlap into a map keyed by
// PairKey. Prefer the callback form on hot paths: at tens of thousands
// of peers the pair map itself dominates memory.
func PairOverlaps(caches [][]trace.FileID, filter FileFilter) map[uint64]int32 {
	pairs := make(map[uint64]int32)
	ForEachPairOverlap(caches, filter, func(a, b trace.PeerID, n int32) {
		pairs[PairKey(a, b)] = n
	})
	return pairs
}

// OverlapHistogram summarizes the pair overlaps into a histogram: bucket
// k holds the number of pairs sharing exactly k (filtered) files.
func OverlapHistogram(caches [][]trace.FileID, filter FileFilter) *stats.Histogram {
	h := stats.NewHistogram()
	ForEachPairOverlap(caches, filter, func(_, _ trace.PeerID, n int32) {
		h.Add(int(n))
	})
	return h
}

// OverlapHistogramSnapshot is OverlapHistogram on an existing columnar
// snapshot, skipping the CSR re-encode.
func OverlapHistogramSnapshot(sn *trace.StoreSnapshot, filter FileFilter) *stats.Histogram {
	h := stats.NewHistogram()
	ForEachPairOverlapSnapshot(sn, filter, func(_, _ trace.PeerID, n int32) {
		h.Add(int(n))
	})
	return h
}

// CorrelationPoint is one point of the clustering correlation curve.
type CorrelationPoint struct {
	// CommonFiles is n, the number of files two peers already share.
	CommonFiles int
	// Probability is P(the pair shares at least n+1 files | it shares
	// at least n), in [0, 1].
	Probability float64
	// Pairs is the number of pairs sharing at least n files.
	Pairs int64
}

// CorrelationCurve computes the paper's clustering correlation metric
// (Fig. 13): for each overlap level n >= 1, the probability that two
// clients with at least n files in common share another one. It reflects
// the chance that a peer that answered n queries can answer the next one.
func CorrelationCurve(h *stats.Histogram) []CorrelationPoint {
	maxN := h.Max()
	var out []CorrelationPoint
	// Tail counts computed from the top down to stay O(max + buckets).
	tails := make([]int64, maxN+2)
	for _, b := range h.Buckets() {
		tails[b] = h.Count(b)
	}
	for n := maxN; n >= 0; n-- {
		tails[n] += tails[n+1]
	}
	for n := 1; n <= maxN; n++ {
		atLeastN := tails[n]
		if atLeastN == 0 {
			continue
		}
		out = append(out, CorrelationPoint{
			CommonFiles: n,
			Probability: float64(tails[n+1]) / float64(atLeastN),
			Pairs:       atLeastN,
		})
	}
	return out
}

// ClusteringCorrelation is the one-call form: overlap histogram plus
// correlation curve for the given caches and filter.
func ClusteringCorrelation(caches [][]trace.FileID, filter FileFilter) []CorrelationPoint {
	return CorrelationCurve(OverlapHistogram(caches, filter))
}
