package workload

import (
	"runtime"
	"testing"

	"edonkey/internal/testenv"
)

// The resident cost of a built world per underlying client, at the
// paper's 30 files per peer. A size in bytes, the same on every machine:
// each constant is the reading on the day it was written times 1.25. A
// change that re-boxes per-client state — a map here, a string column
// there, a pointer per cache — moves it far past a quarter, and with it
// the population one machine can hold.
func TestWorldBytesPerPeer(t *testing.T) {
	if testenv.Race() {
		t.Skip("a byte ceiling: heap sizes under the race detector are the detector's")
	}
	for _, shape := range []struct {
		peers, days int
		ceiling     float64
	}{
		{20000, 2, 3305},   // 2 644 B × 1.25
		{2000, 28, 3422.5}, // 2 738 B × 1.25
	} {
		cfg := DefaultConfig()
		cfg.Seed = 5
		cfg.Peers = shape.peers
		cfg.Days = shape.days
		cfg.Topics = shape.peers / 20
		cfg.InitialFiles = 30 * shape.peers
		cfg.NewFilesPerDay = cfg.InitialFiles / 100
		before := testenv.HeapAfterGC()
		w, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		perPeer := float64(testenv.HeapAfterGC()-before) / float64(shape.peers)
		runtime.KeepAlive(w)
		t.Logf("%d peers, %d days, seed 5: %.0f B per peer resident, ceiling %.0f", shape.peers, shape.days, perPeer, shape.ceiling)
		if perPeer > shape.ceiling {
			t.Errorf("%d peers, %d days, seed 5: the built world holds %.0f B per peer, ceiling %.0f: per-client state left the packed columns", shape.peers, shape.days, perPeer, shape.ceiling)
		}
	}
}
