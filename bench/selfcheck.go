package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"
)

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readManifest(path string) (manifest, error) {
	var m manifest
	data, err := os.ReadFile(path)
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// selfCheckRuns is the number of runs in each of the self-check's two
// sets, the number the acceptance rule takes its quartiles over.
const selfCheckRuns = 10

// selfCheck measures the benchmark's own noise the way its acceptance
// rule does: two sets A and B of the same binary, interleaved A B A B …,
// run i of either set on seed i+1. It writes a Markdown report to
// standard output and fails if, on any workload, a metric's two medians
// differ by more than the metric's bound in BENCHMARK.json, or the
// spread of a set (interquartile distance over median; setup_s exempt)
// exceeds it. The timings that carry no bound are reported beside them,
// so the report shows why they carry none.
func selfCheck(workdir string) error {
	mf, err := readManifest("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("self-check reads the bounds from BENCHMARK.json in the current directory: %w", err)
	}
	fmt.Printf("# Same-binary noise of the benchmark\n\n")
	fmt.Printf("`bench -selfcheck` on %s: sets A and B are the same binary, %d runs each, interleaved A B A B …; run *i* of each set uses seed *i*, %d s per run. The populations are the same on every seed: the seed drives the request streams of the serve workloads and the stochastic experiments of repro, and crawl ignores it, so its runs are one job repeated. ",
		time.Now().UTC().Format("2006-01-02"), selfCheckRuns, mf.RunSeconds)
	fmt.Printf("*spread* is the interquartile distance of a set over its median; *diff* is (median B − median A) / median A. A metric passes when |diff| and both spreads (setup_s: |diff| only) are within its bound. The three timings without a bound are not in BENCHMARK.json: their rows show what a bound on them would have to hold.\n")

	failures := 0
	for _, w := range workloadNames {
		// values[set][metric] lists the runs of one set.
		values := [2]map[string][]float64{{}, {}}
		for i := 0; i < selfCheckRuns; i++ {
			for set := 0; set < 2; set++ {
				res, err := measure(w, uint64(i+1), mf.RunSeconds, workdir)
				if err != nil {
					return err
				}
				if len(res.Problems) > 0 || res.Failed > 0 {
					return fmt.Errorf("%s seed %d: %d failed ops, failed checks %q", w, i+1, res.Failed, res.Problems)
				}
				for name, v := range res.Metrics {
					values[set][name] = append(values[set][name], v)
				}
				fmt.Fprintf(os.Stderr, "self-check: %s set %c run %d done\n", w, 'A'+set, i+1)
			}
		}
		fmt.Printf("\n## %s\n\n", w)
		fmt.Printf("| metric | unit | median A | spread A | median B | spread B | diff | bound | |\n|---|---|---|---|---|---|---|---|---|\n")
		row := func(name, unit, bound, verdict string) {
			a, b := values[0][name], values[1][name]
			ma, mb := median(a), median(b)
			fmt.Printf("| `%s` | %s | %.6g | %.2f %% | %.6g | %.2f %% | %+.2f %% | %s | %s |\n",
				name, unit, ma, 100*spread(a), mb, 100*spread(b), 100*(mb-ma)/ma, bound, verdict)
		}
		for _, m := range mf.EndToEnd {
			a, b := values[0][m.Name], values[1][m.Name]
			diff := math.Abs(median(b)/median(a) - 1)
			verdict := "ok"
			if diff > m.Bound || (m.Name != "setup_s" && max(spread(a), spread(b)) > m.Bound) {
				verdict = "**FAIL**"
				failures++
			}
			row(m.Name, m.Unit, fmt.Sprintf("%.0f %%", 100*m.Bound), verdict)
		}
		for _, m := range timingMetrics {
			row(m.Name, m.Unit, "none", "not gated")
		}
	}
	if failures > 0 {
		return fmt.Errorf("self-check: %d metric/workload pairs outside their bounds", failures)
	}
	fmt.Printf("\nEvery metric that has a bound is within it on every workload; `error_rate` was 0 on every run.\n")
	return nil
}
