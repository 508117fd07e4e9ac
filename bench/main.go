// Command bench is this repository's benchmark: four workloads (crawl,
// repro, serve-lookup, serve-search), four bounded end-to-end metrics and
// three unbounded timings on each, and a traced run that yields the
// per-layer numbers. README.md in this directory says what each name
// means and why; BENCHMARK.json at the root of the repository is the
// contract.
//
//	bench --workload crawl --seed 1 --seconds 15 --trace 0   end-to-end metrics
//	bench --workload crawl --seed 1 --seconds 15 --trace 1   per-layer metrics, spans.crawl.json
//	bench --workload all                                     every workload in turn
//	bench -selfcheck                                         A/B the same binary against itself
//
// The last line of standard output is one JSON object per workload; the
// readable report goes to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
)

func main() {
	var (
		workload  = flag.String("workload", "", "crawl, repro, serve-lookup, serve-search, or all")
		seed      = flag.Uint64("seed", 1, "workload seed: drives the request streams (serve) and the suite's stochastic experiments (repro); the populations are fixed and crawl ignores it")
		seconds   = flag.Int("seconds", 3*secondsPerRep, fmt.Sprintf("measuring budget; buys one repetition per %d s", secondsPerRep))
		traced    = flag.Int("trace", 0, "1 = traced run: per-layer metrics instead of end-to-end")
		workdir   = flag.String("workdir", ".bench_build", "directory for inputs, outputs and spans.<workload>.json")
		selfcheck = flag.Bool("selfcheck", false, "run two interleaved sets of the same binary and compare them")
		childOf   = flag.String("child", "", "internal: run as the system under test for this workload")
		path      = flag.String("path", "", "internal: the child's trace file")
	)
	flag.Parse()

	var err error
	switch {
	case *childOf != "":
		err = childMain(*childOf, *seed, *path)
	case *selfcheck:
		err = selfCheck(*workdir)
	case *workload == "all":
		for _, w := range workloadNames {
			if err = runAndPrint(w, *seed, *seconds, *traced == 1, *workdir); err != nil {
				break
			}
		}
	case *workload != "":
		err = runAndPrint(*workload, *seed, *seconds, *traced == 1, *workdir)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// repsFor is how many repetitions a measuring budget buys.
func repsFor(seconds int) int { return seconds / secondsPerRep }

// measure makes one untraced run: R repetitions in a scratch directory
// under workdir, summarized.
func measure(workload string, seed uint64, seconds int, workdir string) (result, error) {
	if repsFor(seconds) < 2 {
		// One repetition has nothing to be compared with, so the
		// cross-repetition checks would pass vacuously.
		return result{}, fmt.Errorf("--seconds %d buys %d repetitions of %d s; the checks need at least 2", seconds, repsFor(seconds), secondsPerRep)
	}
	gold, err := loadGolden()
	if err != nil {
		return result{}, err
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return result{}, err
	}
	dir, err := os.MkdirTemp(workdir, "run-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	var reps []repetition
	for r := 0; r < repsFor(seconds); r++ {
		rep, err := runRepetition(workload, seed, dir)
		if err != nil {
			return result{}, fmt.Errorf("%s repetition %d: %w", workload, r, err)
		}
		reps = append(reps, rep)
	}
	return summarize(workload, seed, reps, dir, gold)
}

// runAndPrint makes one run and prints it in both forms. A failed check
// is reported in the JSON and as an error.
func runAndPrint(workload string, seed uint64, seconds int, traced bool, workdir string) error {
	var res result
	var defs, shown []metricDef // in the result line; in the readable report
	var err error
	if traced {
		res, err = traceRun(workload, seed, workdir)
		defs, shown = perLayerMetrics, perLayerMetrics
	} else {
		res, err = measure(workload, seed, seconds, workdir)
		defs, shown = endToEndMetrics, slices.Concat(endToEndMetrics, timingMetrics)
	}
	if err != nil {
		return err
	}
	if res.Failed > 0 {
		// The workloads are chosen so that no operation fails.
		res.Problems = append(res.Problems, fmt.Sprintf("%d of %d ops failed", res.Failed, res.Attempted))
	}
	report(os.Stderr, workload, seed, res, shown)
	line, err := resultJSON(res, defs)
	if err != nil {
		return err
	}
	fmt.Println(line)
	if len(res.Problems) > 0 {
		return fmt.Errorf("%s: %d correctness checks failed", workload, len(res.Problems))
	}
	return nil
}

// report writes the readable form.
func report(w *os.File, workload string, seed uint64, res result, defs []metricDef) {
	fmt.Fprintf(w, "%s  seed %d  %d ops attempted, %d failed (error_rate %.6f)",
		workload, seed, res.Attempted, res.Failed, float64(res.Failed)/float64(max(1, res.Attempted)))
	if res.Samples > 0 {
		fmt.Fprintf(w, ", each timing from %d segment executions", res.Samples)
	}
	fmt.Fprintln(w)
	for _, d := range defs {
		fmt.Fprintf(w, "  %-36s %16.6g %s\n", d.Name, res.Metrics[d.Name], d.Unit)
	}
	for _, p := range res.Problems {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", p)
	}
}

// resultJSON renders the contract's result object with exactly the
// metrics in defs.
func resultJSON(res result, defs []metricDef) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{
		Correct:   len(res.Problems) == 0,
		Attempted: res.Attempted,
		Failed:    res.Failed,
		Metrics:   map[string]value{},
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", d.Name)
		}
		out.Metrics[d.Name] = value{v, d.Unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}
