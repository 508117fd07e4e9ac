package main

import (
	"testing"
	"time"
)

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	tr := newTracer("test")
	// Hand-made spans: two "day" spans with "append" children.
	add := func(name string, parent int, start, end int64) int {
		id := tr.start(name, parent)
		tr.spans[id-1].StartNS, tr.spans[id-1].EndNS = start, end
		return id
	}
	d1 := add("day", 0, 0, 100)
	add("append", d1, 60, 90)
	d2 := add("day", 0, 100, 250)
	add("append", d2, 200, 240)
	add("other", 0, 250, 300)

	if got, want := tr.total("day"), 250*time.Nanosecond; got != want {
		t.Errorf("total(day) = %v, want %v", got, want)
	}
	if got, want := tr.self("day"), 180*time.Nanosecond; got != want {
		t.Errorf("self(day) = %v, want %v", got, want)
	}
	if got, want := tr.total("append"), 70*time.Nanosecond; got != want {
		t.Errorf("total(append) = %v, want %v", got, want)
	}
	if got := tr.self("append"); got != tr.total("append") {
		t.Errorf("a leaf's self time %v differs from its total %v", got, tr.total("append"))
	}
}

func TestEveryExperimentBelongsToALayer(t *testing.T) {
	count := map[string]int{}
	for _, id := range []string{"table1", "table2", "tableX1", "fig01", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig23", "table3"} {
		count[experimentLayer(id)]++
	}
	want := map[string]int{"analysis.static": 7, "analysis.fig13": 1, "analysis.fig14": 1, "analysis.fig15": 1, "analysis.sim": 3}
	for layer, n := range want {
		if count[layer] != n {
			t.Errorf("%s: %d experiments, want %d", layer, count[layer], n)
		}
	}
}
