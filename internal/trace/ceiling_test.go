package trace_test

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"edonkey/internal/testenv"
	"edonkey/internal/trace"
	"edonkey/internal/workload"
)

// The ceilings in this file are sizes in bytes, the same on every
// machine, so they need no baseline, anchor or tolerance flag: each
// constant is the reading on the day it was written times 1.25. A
// change that moves one on purpose re-measures and says so.

// writeCollected collects the paper-calibrated world (clustered caches,
// slow churn — the shape real captures have) at 30 files per peer into
// an .edt file and returns its path and size.
func writeCollected(t *testing.T, seed uint64, peers, days int) (string, int64) {
	t.Helper()
	if testenv.Race() {
		t.Skip("a byte ceiling: heap sizes under the race detector are the detector's, and the fixture costs ten times as much")
	}
	cfg := workload.DefaultConfig()
	cfg.Seed = seed
	cfg.Peers = peers
	cfg.Days = days
	cfg.Topics = peers / 20
	cfg.InitialFiles = 30 * peers
	cfg.NewFilesPerDay = cfg.InitialFiles / 100
	tr, _, err := workload.Collect(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.edt")
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, fi.Size()
}

// A 20 000-peer 14-day capture on disk and resident after load. The
// loaded trace keeps exactly one columnar copy of each day (Store()
// wraps the same snapshots), identity columns decoded lazily, rows
// shared across days, dense rows in bitmap containers: a second copy, an
// eager identity table or a per-day map moves bytes after load far past
// a quarter; a change to the delta or keyframe encoding moves the file.
func TestEDTBytesOnDiskAndAfterLoad(t *testing.T) {
	const (
		fileCeiling      = 8_460_100 // 6 768 080 B × 1.25
		afterLoadCeiling = 6_930_450 // 5 544 360 B × 1.25
	)
	path, size := writeCollected(t, 5, 20000, 14)
	t.Logf("20000 peers, 14 days, seed 5: %d B on disk, ceiling %d", size, fileCeiling)
	if size > fileCeiling {
		t.Errorf("20000 peers, 14 days, seed 5: the .edt file is %d B, ceiling %d: the day delta or keyframe encoding got wider", size, fileCeiling)
	}

	before := testenv.HeapAfterGC()
	tr, err := trace.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	grown := testenv.HeapAfterGC() - before
	runtime.KeepAlive(tr)
	t.Logf("20000 peers, 14 days, seed 5: %d B resident after load, ceiling %d", grown, afterLoadCeiling)
	if grown > afterLoadCeiling {
		t.Errorf("20000 peers, 14 days, seed 5: the loaded trace holds %d B, ceiling %d: the loader keeps more than one columnar copy of each day, or decodes identities it was not asked for", grown, afterLoadCeiling)
	}
}

// Four weeks of slow churn pin the delta encoding's steady state: what
// one (peer, day) observation costs on disk once keyframes amortize, the
// number that decides whether a ten-week million-peer capture fits a
// disk.
func TestEDTBytesPerPeerDay(t *testing.T) {
	const ceiling = 21.04 // 16.83 B × 1.25
	_, size := writeCollected(t, 7, 10000, 28)
	perPeerDay := float64(size) / (10000 * 28)
	t.Logf("10000 peers, 28 days, seed 7: %.2f B per peer-day on disk (%d B), ceiling %.2f", perPeerDay, size, ceiling)
	if perPeerDay > ceiling {
		t.Errorf("10000 peers, 28 days, seed 7: %.2f B per peer-day on disk, ceiling %.2f: days are no longer stored as deltas against a sparse keyframe", perPeerDay, ceiling)
	}
}
