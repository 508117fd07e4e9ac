package core

import (
	"testing"

	"edonkey/internal/runner"
	"edonkey/internal/testenv"
	"edonkey/internal/trace"
)

// doubledRows returns the caches with every row twice as long: each peer
// also holds a shifted copy of its own files, numbered past every
// original FileID, so the population, its sharers and its overlap shape
// stay the same while each point runs twice the events.
func doubledRows(caches [][]trace.FileID) [][]trace.FileID {
	shift := trace.FileID(maxFileID(caches) + 1)
	out := make([][]trace.FileID, len(caches))
	for p, c := range caches {
		if len(c) == 0 {
			continue
		}
		row := append(make([]trace.FileID, 0, 2*len(c)), c...)
		for _, f := range c {
			row = append(row, f+shift)
		}
		out[p] = row
	}
	return out
}

// The simulation allocates per point, never per event or per chunk:
// every array is sized from the prestate when the point starts. Doubling
// every row doubles the events of each point and leaves the allocation
// count within a small constant — the old loop appended holders and
// list entries per event and built target arenas and closures per chunk,
// so it drifted by thousands here.
func TestSimAllocationsIndependentOfEvents(t *testing.T) {
	if testenv.Race() {
		t.Skip("the race detector allocates on its own")
	}
	small := skewedCaches(300, 1500, 15, 9)
	large := doubledRows(small)
	opts := sweepGrid(5)
	for _, tc := range []struct {
		name string
		run  func(caches [][]trace.FileID)
	}{
		{"RunSim serial", func(caches [][]trace.FileID) {
			for _, opt := range opts {
				RunSim(caches, opt)
			}
		}},
		{"RunSweep workers=1", func(caches [][]trace.FileID) { RunSweep(caches, opts, runner.New(1)) }},
		{"RunSweep workers=4", func(caches [][]trace.FileID) { RunSweep(caches, opts, runner.New(4)) }},
	} {
		a := testing.AllocsPerRun(3, func() { tc.run(small) })
		b := testing.AllocsPerRun(3, func() { tc.run(large) })
		t.Logf("%s, %d points: %.0f allocations, %.0f with every row doubled", tc.name, len(opts), a, b)
		// A few arenas and append-grown census slices may take one more
		// doubling on the larger input.
		if d := b - a; d > 32 || d < -32 {
			t.Errorf("%s: %.0f allocations, %.0f with every row doubled; want equal within 32",
				tc.name, a, b)
		}
	}
}
