// Command edcrawl runs the paper's measurement methodology end to end: it
// builds a synthetic eDonkey population, crawls it through the wire
// protocol (server nickname sweeps, reachability filtering, daily cache
// browsing) and writes the resulting full trace to a file.
//
// The population is held column-wise and stepped cohort-at-a-time, and
// the protocol side is served by a gateway view over those columns, so
// million-peer crawls fit on a single machine: memory scales with the
// population's packed columns (a few hundred bytes per peer plus the
// catalogue), never with boxed per-client state, and each crawled day
// streams straight to the .edt writer.
//
// The output format is inferred from the extension: ".edt" selects the
// columnar format (the default, written day by day as the crawl runs, so
// trace memory stays one day deep), anything else the legacy gob.
//
// Capture length is bounded by disk, not memory: days stream to the
// writer as they complete, and the .edt delta encoding stores only each
// day's churn, so a ten-week (-days 70) million-peer capture costs
// weeks-of-churn on disk but the same resident floor as a two-week one.
// Analyse long captures with `edrepro -trace ... -stream` to keep the
// analysis side's memory bounded too.
//
// The report counts every browse: rejected (the peer disallows browsing),
// failed (a browsable peer did not answer) and snapshots taken. A failed
// browse means the trace misses a cache the world held, so edcrawl exits
// non-zero after writing the trace when there is one.
//
// Usage:
//
//	edcrawl -o trace.edt [-peers 1000000] [-days 14] [-prefix 2] [-budget 500] [-progress]
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"edonkey/internal/crawler"
	"edonkey/internal/trace"
	"edonkey/internal/workload"
)

func main() {
	var (
		out      = flag.String("o", "trace.edt", "output trace file (.edt = columnar, else gob)")
		jsonOut  = flag.String("json", "", "also write an anonymized JSON export")
		seed     = flag.Uint64("seed", 1, "world seed")
		peers    = flag.Int("peers", 1000, "number of underlying clients")
		days     = flag.Int("days", 14, "crawl duration in days")
		files    = flag.Int("files", 0, "initial catalogue size (0 = 30x peers)")
		prefix   = flag.Int("prefix", 2, "nickname sweep depth (1..3 letters)")
		budget   = flag.Int("budget", 0, "initial daily browse budget (0 = unlimited)")
		final    = flag.Int("final-budget", 0, "final daily browse budget (models bandwidth decline)")
		workers  = flag.Int("workers", 0, "worker pool size for world evolution (0 = GOMAXPROCS, 1 = serial); traces are identical for any value")
		progress = flag.Bool("progress", false, "print a per-day heartbeat (day, peers stepped, snapshots, browse snap/s, resident bytes)")
	)
	flag.Parse()

	wcfg := workload.DefaultConfig()
	wcfg.Seed = *seed
	wcfg.Peers = *peers
	wcfg.Days = *days
	wcfg.Workers = *workers
	wcfg.Topics = max(8, *peers/20)
	if *files > 0 {
		wcfg.InitialFiles = *files
	} else {
		wcfg.InitialFiles = 30 * *peers
	}
	wcfg.NewFilesPerDay = max(1, wcfg.InitialFiles/100)

	ccfg := crawler.Config{
		PrefixLen:     *prefix,
		InitialBudget: *budget,
		FinalBudget:   *final,
	}

	if err := run(wcfg, ccfg, *out, *jsonOut, *progress); err != nil {
		fmt.Fprintln(os.Stderr, "edcrawl:", err)
		os.Exit(1)
	}
}

// heartbeat tracks resident memory and browse throughput across the
// crawl and prints the per-day -progress lines.
type heartbeat struct {
	peers     int
	enabled   bool
	peakHeap  uint64
	snapshots func() int
	world     *workload.World
	mark      time.Time // start of the day in flight
	lastSnaps int       // snapshot count when that day started
}

// sample reads the allocator state and updates the peak.
func (h *heartbeat) sample() (heap uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	if m.HeapAlloc > h.peakHeap {
		h.peakHeap = m.HeapAlloc
	}
	return m.HeapAlloc
}

// day is the crawler's Progress hook. Besides the memory line it
// reports the day's browse throughput — snapshots captured this day
// over the day's wall time — so a scaling run shows at a glance whether
// the parallel browse keeps the pool fed.
func (h *heartbeat) day(day, totalDays int) {
	heap := h.sample()
	now := time.Now()
	snaps := h.snapshots()
	daySnaps := snaps - h.lastSnaps
	elapsed := now.Sub(h.mark).Seconds()
	h.mark = now
	h.lastSnaps = snaps
	if !h.enabled {
		return
	}
	rate := "n/a"
	if elapsed > 0 {
		rate = fmt.Sprintf("%.0f", float64(daySnaps)/elapsed)
	}
	fmt.Printf("progress: day %d/%d, %d peers stepped, %d snapshots (%s snap/s), resident %s (peak %s)\n",
		day+1, totalDays, h.peers, snaps, rate, formatBytes(heap), formatBytes(h.peakHeap))
}

// summary prints the peak-memory line of the final report: the
// allocator-level peak plus the world's own column accounting, so the
// floor attributable to the population is visible next to the total.
func (h *heartbeat) summary() {
	h.sample()
	// "peak bytes/peer" is the whole-process high-water mark per peer —
	// deliberately not named like the gated bytes_per_peer bench metric,
	// which measures only the built world's allocator delta.
	fmt.Printf("memory: peak resident %s (world columns %s), %.0f peak bytes/peer\n",
		formatBytes(h.peakHeap), formatBytes(uint64(h.world.Footprint().Total())),
		float64(h.peakHeap)/float64(h.peers))
}

func formatBytes(v uint64) string {
	switch {
	case v >= 1<<30:
		return fmt.Sprintf("%.2f GB", float64(v)/(1<<30))
	case v >= 1<<20:
		return fmt.Sprintf("%.1f MB", float64(v)/(1<<20))
	default:
		return fmt.Sprintf("%d KB", v>>10)
	}
}

func run(wcfg workload.Config, ccfg crawler.Config, out, jsonOut string, progress bool) error {
	w, err := workload.New(wcfg)
	if err != nil {
		return err
	}
	c, err := crawler.New(w, ccfg)
	if err != nil {
		return err
	}
	hb := &heartbeat{peers: wcfg.Peers, enabled: progress, snapshots: func() int { return c.Stats.Snapshots }, world: w}
	hb.sample() // capture the built world before the first crawl day
	hb.mark = time.Now()
	c.Progress = hb.day

	// The .edt path streams each completed day to the open writer — the
	// whole trace is never resident. The gob format (and the JSON export)
	// needs the full trace in memory, so those fall back to a batch run.
	if strings.HasSuffix(out, ".edt") && jsonOut == "" {
		return runStreaming(w, c, hb, out)
	}
	tr, err := c.Run(w.Config.Days)
	if err != nil {
		return err
	}
	report(c.Stats, tr.ObservedPeers(), tr.DistinctFiles(), tr.Observations())
	if err := tr.WriteFile(out); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	if jsonOut != "" {
		f, err := os.Create(jsonOut)
		if err != nil {
			return err
		}
		if err := tr.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", jsonOut)
	}
	// Summarize last so the peak covers serialization too.
	hb.summary()
	return lostBrowses(c.Stats)
}

func runStreaming(w *workload.World, c *crawler.Crawler, hb *heartbeat, out string) error {
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	ew, err := trace.NewEDTWriter(bw)
	if err != nil {
		f.Close()
		return err
	}
	if err := c.RunStream(w.Config.Days, ew); err != nil {
		f.Close()
		return err
	}
	files, peers := c.Meta()
	if err := ew.Finish(files, peers); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	// Every registered peer was browsed at least once and every file was
	// seen in a cache, so the metadata counts are the trace-level stats.
	report(c.Stats, len(peers), len(files), c.Stats.Snapshots)
	hb.summary()
	fmt.Printf("wrote %s (streamed day by day)\n", out)
	return lostBrowses(c.Stats)
}

func report(stats crawler.Stats, peers, files, observations int) {
	fmt.Printf("crawl finished: %d days, %d queries, %d identities discovered\n",
		stats.Days, stats.Queries, stats.UniqueUsers)
	fmt.Printf("  low-ID skipped: %d, browse rejected: %d, browse failed: %d, snapshots: %d\n",
		stats.LowIDSkipped, stats.BrowseRejected, stats.BrowseFailed, stats.Snapshots)
	fmt.Printf("  days the browse budget cut short: %d\n", stats.BudgetExhausted)
	fmt.Printf("trace: %d peers, %d distinct files, %d observations\n",
		peers, files, observations)
}

// lostBrowses fails a crawl that lost a browse: a peer that allowed
// browsing and was online did not answer, so the trace misses a cache
// the world held. The trace is written all the same.
func lostBrowses(stats crawler.Stats) error {
	if stats.BrowseFailed > 0 {
		return fmt.Errorf("%d browses of browsable peers failed", stats.BrowseFailed)
	}
	return nil
}
