package crawler

import (
	"testing"

	"edonkey/internal/testenv"
	"edonkey/internal/trace"
	"edonkey/internal/workload"
)

// countWriter counts streamed bytes (the crawl discards the capture).
type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// What one (peer, day) costs in the .edt stream of a protocol crawl once
// the delta encoding reaches its slow-churn steady state — the number
// that decides whether a ten-week million-peer capture fits a disk. A
// size in bytes, the same on every machine: the constant is the reading
// on the day it was written times 1.25.
func TestStreamedCrawlBytesPerPeerDay(t *testing.T) {
	if testenv.Race() {
		t.Skip("a byte ceiling: the bytes are the same under the race detector and the crawl costs ten times as much")
	}
	const (
		peers, days = 2000, 28
		ceiling     = 21.26 // 17.01 B × 1.25
	)
	cfg := workload.DefaultConfig()
	cfg.Seed = 5
	cfg.Peers = peers
	cfg.Days = days
	cfg.Topics = peers / 20
	cfg.InitialFiles = 30 * peers
	cfg.NewFilesPerDay = cfg.InitialFiles / 100
	w, err := workload.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(w, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cw := &countWriter{}
	ew, err := trace.NewEDTWriter(cw)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RunStream(days, ew); err != nil {
		t.Fatal(err)
	}
	if err := ew.Finish(c.Meta()); err != nil {
		t.Fatal(err)
	}
	if c.Stats.Snapshots == 0 {
		t.Fatal("empty crawl")
	}
	perPeerDay := float64(cw.n) / (peers * days)
	t.Logf("2000 peers, 28 days, seed 5: %.2f B per peer-day streamed (%d B), ceiling %.2f", perPeerDay, cw.n, ceiling)
	if perPeerDay > ceiling {
		t.Errorf("2000 peers, 28 days, seed 5: %.2f B per peer-day streamed, ceiling %.2f: the streamed writer no longer stores a crawled day as a delta against a sparse keyframe", perPeerDay, ceiling)
	}
}
