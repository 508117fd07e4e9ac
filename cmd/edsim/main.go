// Command edsim runs the paper's semantic-neighbour search simulation
// with configurable strategy, list size, hops and ablations, on either a
// generated or saved trace.
//
// Usage:
//
//	edsim [-strategy lru|history|random] [-list 20] [-twohop]
//	      [-drop-uploaders 0.05] [-drop-files 0.15] [-randomize]
//	      [-lists 5,10,20,50] [-workers 0] [-trace trace.edt]
//	      [-v] [-exectrace run.trace]
//
// With -lists, one simulation per list size runs concurrently on the
// worker pool and a summary line is printed per size. A single point
// scales with -workers too: its event loop is sharded across the pool
// (speculate in parallel, commit in order), bit-identical to -workers 1.
package main

import (
	"cmp"
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"

	"edonkey"
	"edonkey/internal/core"
	"edonkey/internal/prof"
	"edonkey/internal/workload"
)

func main() {
	var (
		tracePath      = flag.String("trace", "", "saved trace file, .edt or gob (default: generate)")
		seed           = flag.Uint64("seed", 1, "seed")
		peers          = flag.Int("peers", 2000, "generated population size")
		days           = flag.Int("days", 30, "generated trace days")
		strategy       = flag.String("strategy", "lru", "lru, history or random")
		listSize       = flag.Int("list", 20, "semantic neighbour list size")
		listSweep      = flag.String("lists", "", "comma-separated list sizes: run the whole sweep concurrently")
		twoHop         = flag.Bool("twohop", false, "query neighbours' neighbours on a miss")
		dropUp         = flag.Float64("drop-uploaders", 0, "fraction of top uploaders removed")
		dropFiles      = flag.Float64("drop-files", 0, "fraction of top popular files removed")
		randomizeTrace = flag.Bool("randomize", false, "fully randomize caches first (appendix algorithm)")
		load           = flag.Bool("load", false, "print the query-load distribution")
		workers        = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS, 1 = serial); shards sweeps and single points alike, results identical for any value")
		cpuprofile     = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile     = flag.String("memprofile", "", "write a heap profile to this file on exit")
		exectrace      = flag.String("exectrace", "", "write a runtime execution trace to this file (go tool trace)")
		verbose        = flag.Bool("v", false, "report simulation phase timings (prestate / eval / commit) to stderr")
	)
	flag.Parse()

	stopProf, err := prof.Start(*cpuprofile, *memprofile, *exectrace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "edsim:", err)
		os.Exit(1)
	}
	// os.Exit skips defers, so close the profiles explicitly before any
	// exit path — a truncated CPU profile is unreadable by pprof.
	timings := core.SweepTimingsSnapshot()
	runErr := run(*tracePath, *seed, *peers, *days, *workers, *listSize,
		*strategy, *listSweep, *twoHop, *dropUp, *dropFiles,
		*randomizeTrace, *load)
	if *verbose {
		fmt.Fprintf(os.Stderr, "edsim: sim phases: %s\n",
			core.SweepTimingsSnapshot().Sub(timings))
	}
	if err := stopProf(); err != nil {
		fmt.Fprintln(os.Stderr, "edsim:", err)
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "edsim:", runErr)
		os.Exit(1)
	}
}

func run(tracePath string, seed uint64, peers, days, workers, listSize int,
	strategy, listSweep string, twoHop bool, dropUp, dropFiles float64,
	randomizeTrace, load bool) error {
	study, err := makeStudy(tracePath, seed, peers, days, workers)
	if err != nil {
		return err
	}

	opt := edonkey.SearchOptions{
		ListSize:         listSize,
		Strategy:         strategy,
		TwoHop:           twoHop,
		Seed:             seed,
		DropTopUploaders: dropUp,
		DropTopFiles:     dropFiles,
		TrackLoad:        load,
	}
	if randomizeTrace {
		opt.RandomizeSwaps = -1
	}

	if listSweep != "" {
		return runSweep(study, opt, listSweep)
	}

	res, err := study.SearchSim(opt)
	if err != nil {
		return err
	}

	fmt.Println(res.String())
	fmt.Printf("  peers: %d (%d sharers), contributions: %d\n",
		res.Peers, res.Sharers, res.Contributions)
	fmt.Printf("  one-hop hits: %d, two-hop hits: %d, messages: %d\n",
		res.OneHopHits, res.TwoHopHits, res.Messages)
	if load && res.Requests > 0 {
		printLoad(res)
	}
	return nil
}

// printLoad prints the query-load distribution of a TrackLoad run.
func printLoad(res core.SimResult) {
	var loads []int64
	for _, l := range res.LoadPerPeer {
		if l > 0 {
			loads = append(loads, l)
		}
	}
	if len(loads) == 0 {
		fmt.Println("  load: no queries were delivered")
		return
	}
	slices.SortFunc(loads, func(a, b int64) int { return cmp.Compare(b, a) })
	mean := float64(res.Messages) / float64(len(loads))
	fmt.Printf("  load: %d loaded peers, mean %.1f msgs, max %d\n",
		len(loads), mean, loads[0])
	for _, q := range []int{0, len(loads) / 100, len(loads) / 10, len(loads) / 2} {
		fmt.Printf("    rank %6d: %d msgs\n", q+1, loads[q])
	}
}

// runSweep parses the -lists grid and runs one simulation per size
// concurrently through the facade's sweep entry point.
func runSweep(study *edonkey.Study, base edonkey.SearchOptions, lists string) error {
	var opts []edonkey.SearchOptions
	for _, field := range strings.Split(lists, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		L, err := strconv.Atoi(field)
		if err != nil || L <= 0 {
			return fmt.Errorf("bad -lists entry %q", field)
		}
		opt := base
		opt.ListSize = L
		opts = append(opts, opt)
	}
	if len(opts) == 0 {
		return fmt.Errorf("-lists is empty")
	}
	results, err := study.SearchSweep(opts)
	if err != nil {
		return err
	}
	for _, res := range results {
		fmt.Println(res.String())
		if base.TrackLoad && res.Requests > 0 {
			printLoad(res)
		}
	}
	return nil
}

func makeStudy(tracePath string, seed uint64, peers, days, workers int) (*edonkey.Study, error) {
	if tracePath != "" {
		study, err := edonkey.LoadStudy(tracePath)
		if err != nil {
			return nil, err
		}
		return study.SetWorkers(workers), nil
	}
	cfg := edonkey.DefaultStudyConfig()
	w := workload.DefaultConfig()
	w.Seed = seed
	w.Peers = peers
	w.Days = days
	w.Topics = max(8, peers/20)
	w.InitialFiles = 30 * peers
	w.NewFilesPerDay = max(1, w.InitialFiles/100)
	cfg.World = w
	cfg.Workers = workers
	return edonkey.NewStudy(cfg)
}
