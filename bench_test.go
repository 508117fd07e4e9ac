package edonkey

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (Tables 1-3, Figures 1-23), one testing.B benchmark per
// artefact, on a shared laptop-scale study. Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark reports the wall cost of regenerating its experiment;
// the actual data series are written by cmd/edrepro.

import (
	"sync"
	"testing"

	"edonkey/internal/analysis"
	"edonkey/internal/core"
	"edonkey/internal/geo"
	"edonkey/internal/overlay"
	"edonkey/internal/trace"
	"edonkey/internal/workload"
)

// Per-figure benchmarks run their sweeps serially (nil pool) so they
// keep measuring the cost of one experiment's work, not the machine's
// core count. None of them is tracked or gated: the repository's
// yardstick is bench/ (BENCHMARK.json, `bash bench/run.sh`), whose repro
// workload times the same suite end to end and layer by layer.

var (
	benchOnce  sync.Once
	benchStudy *Study
	benchReg   *geo.Registry
	benchErr   error
)

func benchSetup(b *testing.B) *Study {
	b.Helper()
	benchOnce.Do(func() {
		cfg := DefaultStudyConfig()
		cfg.World = workload.Config{
			Seed:           1,
			Peers:          900,
			Days:           28,
			Topics:         80,
			InitialFiles:   30000,
			NewFilesPerDay: 250,
		}
		benchStudy, benchErr = NewStudy(cfg)
		if benchErr == nil {
			benchReg = benchStudy.World.Registry
		}
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchStudy
}

func benchDays(s *Study) (first, mid, last int) {
	first, last, _ = s.Extrapolated.DayRange()
	return first, (first + last) / 2, last
}

func BenchmarkTable1Characteristics(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = analysis.Table1(s.Full, s.Filtered, s.Extrapolated)
	}
}

func BenchmarkTable2TopASes(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = analysis.Table2(s.Filtered, benchReg, 5)
	}
}

func BenchmarkTable3CombinedAblation(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = analysis.Table3Combined(s.Caches, 1, nil)
	}
}

func BenchmarkFig01ClientsFilesPerDay(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = analysis.Fig1ClientsFilesPerDay(s.Full)
	}
}

func BenchmarkFig02NewFiles(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = analysis.Fig2NewFiles(s.Full, nil)
	}
}

func BenchmarkFig03Extrapolated(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = analysis.Fig3ExtrapolatedCoverage(s.Extrapolated, nil)
	}
}

func BenchmarkFig04Countries(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = analysis.Fig4Countries(s.Full, 11)
	}
}

func BenchmarkFig05Replication(b *testing.B) {
	s := benchSetup(b)
	first, mid, last := benchDays(s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = analysis.Fig5Replication(s.Extrapolated, []int{first, mid, last}, nil)
	}
}

func BenchmarkFig06FileSizes(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = analysis.Fig6FileSizes(s.Filtered, []int{1, 5, 10}, nil)
	}
}

func BenchmarkFig07Contribution(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = analysis.Fig7Contribution(s.Filtered, nil)
	}
}

func BenchmarkFig08Spread(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = analysis.Fig8Spread(s.Filtered, 6, nil)
	}
}

func BenchmarkFig09RankEvolution(b *testing.B) {
	s := benchSetup(b)
	first, _, _ := s.Filtered.DayRange()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = analysis.FigRankEvolution("fig09", s.Filtered, first, 5, nil)
	}
}

func BenchmarkFig10RankEvolution(b *testing.B) {
	s := benchSetup(b)
	first, last, _ := s.Filtered.DayRange()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = analysis.FigRankEvolution("fig10", s.Filtered, (first+last)/2, 5, nil)
	}
}

func BenchmarkFig11HomeCountry(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = analysis.FigHomeConcentration("fig11", s.Filtered, false, []float64{1, 1.5, 2}, nil)
	}
}

func BenchmarkFig12HomeAS(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = analysis.FigHomeConcentration("fig12", s.Filtered, true, []float64{1, 1.5, 2}, nil)
	}
}

func BenchmarkFig13ClusteringCorrelation(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = analysis.Fig13Clustering(s.Extrapolated, s.Full, s.Pool())
	}
}

func BenchmarkFig14RandomizedCorrelation(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = analysis.Fig14RandomizedClustering(s.Filtered, 1, s.Pool())
	}
}

func BenchmarkFig15OverlapEvolution(b *testing.B) {
	s := benchSetup(b)
	levels := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = analysis.FigOverlapEvolution("fig15", s.Extrapolated, levels, 2000, s.Pool())
	}
}

func BenchmarkFig16OverlapEvolutionMid(b *testing.B) {
	s := benchSetup(b)
	levels := analysis.PickOverlapLevels(s.Extrapolated, 15, 60, 8, s.Pool())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = analysis.FigOverlapEvolution("fig16", s.Extrapolated, levels, 2000, s.Pool())
	}
}

func BenchmarkFig17OverlapEvolutionHigh(b *testing.B) {
	s := benchSetup(b)
	levels := analysis.PickOverlapLevels(s.Extrapolated, 61, 0, 4, s.Pool())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = analysis.FigOverlapEvolution("fig17", s.Extrapolated, levels, 2000, s.Pool())
	}
}

var benchListSizes = []int{5, 10, 20}

func BenchmarkFig18HitRates(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = analysis.Fig18HitRates(s.Caches, benchListSizes, 1, nil)
	}
}

func BenchmarkFig19UploaderAblation(b *testing.B) {
	s := benchSetup(b)
	drops := []float64{0, 0.05, 0.10, 0.15}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = analysis.Fig19UploaderAblation(s.Caches, benchListSizes, drops, 1, nil)
	}
}

func BenchmarkFig20PopularityAblation(b *testing.B) {
	s := benchSetup(b)
	drops := []float64{0, 0.05, 0.15, 0.30}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = analysis.Fig20PopularityAblation(s.Caches, benchListSizes, drops, 1, nil)
	}
}

func BenchmarkFig21RandomizedHitRate(b *testing.B) {
	s := benchSetup(b)
	fractions := []float64{0, 0.25, 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = analysis.Fig21RandomizedHitRate(s.Caches, fractions, 1, nil)
	}
}

func BenchmarkFig22LoadDistribution(b *testing.B) {
	s := benchSetup(b)
	drops := []float64{0, 0.05, 0.10, 0.15}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = analysis.Fig22LoadDistribution(s.Caches, drops, 1, nil)
	}
}

func BenchmarkFig23TwoHop(b *testing.B) {
	s := benchSetup(b)
	drops := []float64{0, 0.05}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = analysis.Fig23TwoHop(s.Caches, benchListSizes, drops, 1, nil)
	}
}

// Ablation benches for design choices called out in DESIGN.md: the cost
// of the trace derivations and of generating the world itself.

func BenchmarkAblationWorldGeneration(b *testing.B) {
	cfg := workload.Config{
		Seed: 2, Peers: 400, Days: 1, Topics: 40,
		InitialFiles: 10000, NewFilesPerDay: 100,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := workload.New(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationFilterDerivation(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Full.Filter()
	}
}

func BenchmarkAblationExtrapolateDerivation(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Filtered.Extrapolate(trace.DefaultExtrapolateOptions())
	}
}

func BenchmarkAblationAggregateCaches(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Filtered.AggregateCaches()
	}
}

// BenchmarkAblationOverlayConvergence measures the gossip overlay
// extension (paper §7 future work): the cost of self-organizing semantic
// views over the study's caches.
func BenchmarkAblationOverlayConvergence(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := overlay.New(s.Caches, overlay.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		p.Run(8)
	}
}

// BenchmarkAblationOverlayVsLRUSearch compares searching with
// overlay-built fixed lists against the reactive LRU strategy on the same
// workload (both runs measured together; see examples/semanticoverlay for
// the hit-rate comparison).
func BenchmarkAblationOverlayVsLRUSearch(b *testing.B) {
	s := benchSetup(b)
	p, err := overlay.New(s.Caches, overlay.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	p.Run(8)
	views := p.Views()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.RunSim(s.Caches, core.SimOptions{ListSize: 20, Seed: 1, FixedLists: views})
		_ = core.RunSim(s.Caches, core.SimOptions{ListSize: 20, Kind: core.LRU, Seed: 1})
	}
}
