package core

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"edonkey/internal/runner"
	"edonkey/internal/trace"
)

var updateSimGolden = flag.Bool("update", false, "rewrite testdata/sim_golden.txt")

// simGoldenGrid is the pinned grid: {LRU, History, Random, Fixed} ×
// {one-hop, two-hop} × {no ablation, DropTopUploaders, DropTopFiles,
// RandomizeSwaps} × two seeds, every point with load tracking so the
// golden holds LoadPerPeer too.
func simGoldenGrid(peers int) []SimOptions {
	fixed := make([][]trace.PeerID, peers)
	for p := range fixed {
		for k := 1; k <= 5; k++ {
			fixed[p] = append(fixed[p], trace.PeerID((p+k*41)%peers))
		}
	}
	ablations := []SimOptions{
		{},
		{DropTopUploaders: 0.1},
		{DropTopFiles: 0.1},
		{RandomizeSwaps: 400},
	}
	var opts []SimOptions
	for _, seed := range []uint64{3, 8} {
		for _, kind := range []string{"LRU", "History", "Random", "Fixed"} {
			for _, twoHop := range []bool{false, true} {
				for _, abl := range ablations {
					opt := abl
					opt.ListSize = 6
					opt.Seed = seed
					opt.TwoHop = twoHop
					opt.TrackLoad = true
					switch kind {
					case "LRU":
						opt.Kind = LRU
					case "History":
						opt.Kind = History
					case "Random":
						opt.Kind = Random
					case "Fixed":
						opt.FixedLists = fixed
					}
					opts = append(opts, opt)
				}
			}
		}
	}
	return opts
}

// goldenLine renders one point: its options, every scalar result field
// and a SHA-256 of LoadPerPeer (little-endian int64s).
func goldenLine(opt SimOptions, r SimResult) string {
	h := sha256.New()
	var b [8]byte
	for _, l := range r.LoadPerPeer {
		binary.LittleEndian.PutUint64(b[:], uint64(l))
		h.Write(b[:])
	}
	return fmt.Sprintf("seed=%d twohop=%t drop_up=%g drop_files=%g swaps=%d | %s L=%d twohop=%t peers=%d sharers=%d requests=%d contributions=%d hits=%d one=%d two=%d messages=%d load=%d:%x",
		opt.Seed, opt.TwoHop, opt.DropTopUploaders, opt.DropTopFiles, opt.RandomizeSwaps,
		r.Strategy, r.ListSize, r.TwoHop, r.Peers, r.Sharers, r.Requests, r.Contributions,
		r.Hits, r.OneHopHits, r.TwoHopHits, r.Messages, len(r.LoadPerPeer), h.Sum(nil))
}

// TestSimGolden pins every simulation path to results frozen from the
// original event loop: RunSim serial, RunSim sharded and RunSweep at
// workers 1, 4 and GOMAXPROCS all render the committed file line for
// line. Regenerate deliberately with `go test ./internal/core -run
// TestSimGolden -update`.
func TestSimGolden(t *testing.T) {
	caches := skewedCaches(300, 1500, 15, 9)
	opts := simGoldenGrid(len(caches))

	serial := make([]SimResult, len(opts))
	for i, opt := range opts {
		serial[i] = RunSim(caches, opt)
	}
	var sb strings.Builder
	for i, opt := range opts {
		fmt.Fprintln(&sb, goldenLine(opt, serial[i]))
	}
	path := filepath.Join("testdata", "sim_golden.txt")
	if *updateSimGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d points)", path, len(opts))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(opts) {
		t.Fatalf("golden has %d lines, grid has %d points", len(wantLines), len(opts))
	}
	for i, opt := range opts {
		if got := goldenLine(opt, serial[i]); got != wantLines[i] {
			t.Errorf("serial point %d:\n got %s\nwant %s", i, got, wantLines[i])
		}
	}

	for i, opt := range opts {
		opt.Pool = runner.New(4)
		if got := RunSim(caches, opt); !reflect.DeepEqual(got, serial[i]) {
			t.Errorf("sharded point %d diverged from serial:\n got %s\nwant %s",
				i, goldenLine(opt, got), wantLines[i])
		}
	}
	for _, w := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		got := RunSweep(caches, opts, runner.New(w))
		for i := range opts {
			if !reflect.DeepEqual(got[i], serial[i]) {
				t.Errorf("RunSweep workers=%d point %d diverged from serial:\n got %s\nwant %s",
					w, i, goldenLine(opts[i], got[i]), wantLines[i])
			}
		}
	}
}
