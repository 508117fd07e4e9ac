package main

import (
	"edonkey/internal/workload"
)

// The sizes below fix what one repetition of each workload does. They
// are part of the benchmark's definition: a number measured at other
// sizes is another benchmark's number.
const (
	// populationSeed seeds every synthetic world. The populations are
	// the benchmark's datasets and are the same on every run: their file
	// counts are heavy-tailed, so two seeds' worlds differ by a tenth in
	// total work, which would drown any change a run is meant to show.
	// --seed drives what the harness itself draws: the request streams
	// of the serve workloads and the stochastic experiments of repro.
	populationSeed = 1

	// sutProcs is GOMAXPROCS and the worker-pool size of the system under
	// test, set explicitly so a run on a larger box measures the same
	// program.
	sutProcs = 2

	// secondsPerRep is how much of --seconds buys one repetition; the
	// workloads are sized so a repetition's timed segments take about
	// this long on the reference box.
	secondsPerRep = 5

	crawlPeers = 20000
	crawlDays  = 8

	reproPeers = 4000
	reproDays  = 28

	servePeers = 20000
	serveDays  = 3
	serveDay   = 2 // index of the day the server freezes

	// Closed-loop load: each connection sends a burst of loadDepth
	// requests in one write and waits for all loadDepth replies.
	loadConns = 2
	loadDepth = 16

	serveSegments     = 10
	lookupSegRequests = 100000 // per segment, over all connections
	searchSegRequests = 16000
)

// reproListSizes is the semantic-list grid of the simulation figures.
var reproListSizes = []int{5, 20, 100}

var workloadNames = []string{"crawl", "repro", "serve-lookup", "serve-search"}

// worldConfig derives a population the way edcrawl and edserved do from
// a peer count: 30 files and a twentieth of a topic per peer.
func worldConfig(peers, days int) workload.Config {
	c := workload.DefaultConfig()
	c.Seed = populationSeed
	c.Peers = peers
	c.Days = days
	c.Workers = sutProcs
	c.Topics = max(8, peers/20)
	c.InitialFiles = 30 * peers
	c.NewFilesPerDay = max(1, c.InitialFiles/100)
	return c
}

// metricDef names one metric of BENCHMARK.json.
type metricDef struct {
	Name string
	Unit string
}

// endToEndMetrics are the result line of an untraced run, for every
// workload: the metrics BENCHMARK.json puts a bound on.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"allocs_per_op", "count"},
	{"alloc_kb_per_op", "KB"},
}

// timingMetrics are measured by every untraced run and printed in its
// readable report, but carry no bound: on the reference box the same
// binary on the same inputs spreads by 5 to 15 % in each of them
// whatever the estimator (NOISE.md), which no bound of a tenth can hold.
// A timing claim rests on paired runs of these.
var timingMetrics = []metricDef{
	{"wall_s", "s"},
	{"throughput", "ops/s"},
	{"cpu_us_per_op", "us"},
}

// ladderClasses are the request classes of the serving ladder.
var ladderClasses = []reqClass{classSources, classUsers, classSearch, classLogin}

// ladderRungs are the rungs, bottom up: nanoseconds per request, each
// with an allocations-per-request twin.
var ladderRungs = []string{"protocol.decode", "serve.lookup", "protocol.render", "serve.session", "serve.tcp"}

// perLayerMetrics are printed by a traced run.
var perLayerMetrics = func() []metricDef {
	m := []metricDef{
		{"workload.build_s", "s"},
		{"workload.step_s", "s"},
		{"crawler.day_self_s", "s"},
		{"crawler.queries", "count"},
		{"crawler.snapshots", "count"},
		{"crawler.browse_attempts", "count"},
		{"crawler.browse_failed", "count"},
		{"trace.edt_append_s", "s"},
		{"trace.edt_finish_s", "s"},
		{"trace.edt_bytes_per_snapshot", "B"},
		{"trace.load_s", "s"},
		{"trace.load_alloc_mb", "MB"},
		{"trace.filter_s", "s"},
		{"trace.extrapolate_s", "s"},
		{"trace.aggregate_s", "s"},
		{"analysis.fold_s", "s"},
		{"analysis.static_s", "s"},
		{"analysis.fig13_s", "s"},
		{"analysis.fig14_s", "s"},
		{"analysis.fig15_s", "s"},
		{"analysis.sim_s", "s"},
		{"core.sweep_prestate_s", "s"},
		{"core.sweep_eval_s", "s"},
		{"core.sweep_commit_s", "s"},
		{"core.sim_events", "count"},
		{"core.reeval_ratio", "ratio"},
		{"runner.cpu_per_wall.crawl", "ratio"},
		{"runner.cpu_per_wall.repro", "ratio"},
	}
	for _, rung := range ladderRungs {
		for _, c := range ladderClasses {
			if rung == "serve.lookup" && c == classLogin {
				continue // a login consults no directory
			}
			m = append(m,
				metricDef{rung + "_ns." + c.String(), "ns"},
				metricDef{rung + "_allocs." + c.String(), "count"})
		}
	}
	return append(m,
		metricDef{"serve.snapshot_build_s", "s"},
		metricDef{"serve.snapshot_bytes_per_user", "B"},
		metricDef{"serve.reply_bytes_per_op", "B"},
		metricDef{"serve.read_syscalls_per_op", "count"},
		metricDef{"serve.write_syscalls_per_op", "count"},
		metricDef{"loadgen.p50_us", "us"},
		metricDef{"loadgen.p99_us", "us"},
		metricDef{"loadgen.client_cpu_us_per_op", "us"},
		metricDef{"bench.trace_overhead_pct", "%"},
		// One untraced repetition, unfiltered: the timings in the form a
		// program can read. The noise-filtered ones are timingMetrics.
		metricDef{"bench.untraced_wall_s", "s"},
		metricDef{"bench.untraced_ops_per_s", "ops/s"},
		metricDef{"bench.untraced_cpu_us_per_op", "us"},
	)
}()
