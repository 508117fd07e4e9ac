package main

import (
	"encoding/json"
	"regexp"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestBenchmarkJSONNamesWhatTheCommandPrints(t *testing.T) {
	b, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}

	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q uses characters outside letters, digits, _ . -", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the command runs %d", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		name("workload", w.Name)
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the command", i, w.Name, workloadNames[i])
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}

	if len(b.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the command prints %d", len(b.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range b.EndToEnd {
		name("end-to-end", m.Name)
		if d := endToEndMetrics[i]; m.Name != d.Name || m.Unit != d.Unit {
			t.Errorf("end-to-end metric %d is %s [%s] in BENCHMARK.json and %s [%s] in the command", i, m.Name, m.Unit, d.Name, d.Unit)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: bad unit %q", m.Name, m.Unit)
		}
		// A tenth is the widest bound a metric may have here; one that
		// cannot hold it is dropped, not widened. setup_s must exist and
		// the contract gives it the widest bound it allows.
		widest := 0.10
		if m.Name == "setup_s" {
			widest = 0.25
		}
		if m.Bound <= 0 || m.Bound > widest {
			t.Errorf("%s: bound %v outside (0, %v]", m.Name, m.Bound, widest)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
	}

	if len(b.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the command prints %d", len(b.PerLayer), len(perLayerMetrics))
	}
	for i, m := range b.PerLayer {
		name("per-layer", m.Name)
		if d := perLayerMetrics[i]; m.Name != d.Name || m.Unit != d.Unit {
			t.Errorf("per-layer metric %d is %s [%s] in BENCHMARK.json and %s [%s] in the command", i, m.Name, m.Unit, d.Name, d.Unit)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: bad unit %q", m.Name, m.Unit)
		}
	}

	if b.RunSeconds < 1 || b.RunSeconds > 60 || b.RunSeconds%secondsPerRep != 0 {
		t.Errorf("run_seconds %d is not a whole number of %d s repetitions within 1..60", b.RunSeconds, secondsPerRep)
	}
}

func TestResultJSONCarriesExactlyTheNamedMetrics(t *testing.T) {
	res := result{Metrics: map[string]float64{"extra": 1}, Attempted: 10}
	for _, d := range endToEndMetrics {
		res.Metrics[d.Name] = 1.5
	}
	line, err := resultJSON(res, endToEndMetrics)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Correct   *bool `json:"correct"`
		Attempted *int  `json:"attempted"`
		Failed    *int  `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  *string  `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(line), &out); err != nil {
		t.Fatal(err)
	}
	if out.Correct == nil || out.Attempted == nil || out.Failed == nil || !*out.Correct {
		t.Errorf("result line %s lacks correct/attempted/failed", line)
	}
	if len(out.Metrics) != len(endToEndMetrics) {
		t.Errorf("result line has %d metrics, want %d", len(out.Metrics), len(endToEndMetrics))
	}
	for _, d := range endToEndMetrics {
		if m, ok := out.Metrics[d.Name]; !ok || m.Value == nil || m.Unit == nil || *m.Unit != d.Unit {
			t.Errorf("metric %s missing or without its unit in %s", d.Name, line)
		}
	}
	delete(res.Metrics, "peak_rss_mb")
	if _, err := resultJSON(res, endToEndMetrics); err == nil {
		t.Error("a metric that was not measured did not stop the result line")
	}
}
