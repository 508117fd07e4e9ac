package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"time"

	"edonkey/internal/analysis"
	"edonkey/internal/crawler"
	"edonkey/internal/runner"
	"edonkey/internal/serve"
	"edonkey/internal/trace"
	"edonkey/internal/workload"
)

// childMain is the system under test: one repetition of one workload,
// calling only the public functions a user's commands call, and marking
// the segment boundaries on standard output. path is the .edt file the
// workload writes (crawl) or was given (repro, serve).
func childMain(name string, seed uint64, path string) error {
	m := newMarker(os.Stdout)
	if err := m.mark(m.take("start")); err != nil {
		return err
	}
	switch name {
	case "crawl":
		// The crawler draws nothing at random and its input is the
		// population itself, so the seed changes nothing here.
		return childCrawl(m, path)
	case "repro":
		return childRepro(m, seed, path)
	case "serve":
		return childServe(m, path)
	}
	return fmt.Errorf("unknown child workload %q", name)
}

// crawlJob is edcrawl's streaming run, cut at the points the benchmark
// marks or traces. The traced run drives the same steps in process.
type crawlJob struct {
	crawler *crawler.Crawler
	file    *os.File
	buf     *bufio.Writer
	writer  *trace.EDTWriter
}

// crawlWorld builds the population the crawl workload observes.
func crawlWorld() (*workload.World, error) {
	return workload.New(worldConfig(crawlPeers, crawlDays))
}

// newCrawlJob points a crawler at the world and opens the output; with
// crawlWorld it is the workload's set-up.
func newCrawlJob(w *workload.World, path string) (*crawlJob, error) {
	c, err := crawler.New(w, crawler.Config{PrefixLen: 2})
	if err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	buf := bufio.NewWriter(f)
	ew, err := trace.NewEDTWriter(buf)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &crawlJob{crawler: c, file: f, buf: buf, writer: ew}, nil
}

// finish writes the identity tables and closes the file.
func (j *crawlJob) finish() error {
	files, peers := j.crawler.Meta()
	if err := j.writer.Finish(files, peers); err != nil {
		j.file.Close()
		return err
	}
	if err := j.buf.Flush(); err != nil {
		j.file.Close()
		return err
	}
	return j.file.Close()
}

func childCrawl(m *marker, path string) error {
	w, err := crawlWorld()
	if err != nil {
		return err
	}
	job, err := newCrawlJob(w, path)
	if err != nil {
		return err
	}
	if err := m.mark(m.take("ready")); err != nil {
		return err
	}
	var last crawler.Stats
	var markErr error
	job.crawler.Progress = func(day, _ int) {
		r := m.take(fmt.Sprintf("day%02d", day))
		st := job.crawler.Stats
		r.Ops = st.Snapshots - last.Snapshots
		r.Failed = st.BrowseFailed - last.BrowseFailed
		last = st
		markErr = errors.Join(markErr, m.mark(r))
	}
	if err := job.crawler.RunStream(crawlDays, job.writer); err != nil {
		job.file.Close()
		return err
	}
	if err := job.finish(); err != nil {
		return err
	}
	return errors.Join(markErr, m.mark(m.take("finish")))
}

// reproJob is edrepro on a saved trace, one experiment at a time.
type reproJob struct {
	in analysis.SuiteInput
}

// load reads the trace: the first timed segment. seed drives every
// stochastic experiment of the suite.
func (j *reproJob) load(path string, seed uint64) error {
	tr, err := trace.ReadFile(path)
	if err != nil {
		return err
	}
	j.in = analysis.SuiteInput{Full: tr, Seed: seed, ListSizes: reproListSizes, Pool: runner.New(sutProcs)}
	return nil
}

// derive computes the trace levels every experiment reads: the second
// segment. Each derivation runs through step, so the traced run can time
// them apart.
func (j *reproJob) derive(step func(layer string, fn func())) {
	step("analysis.fold", func() { j.in.FullStats = analysis.FoldFullStats(j.in.Full) })
	step("trace.filter", func() { j.in.Filtered = j.in.Full.Filter() })
	step("trace.extrapolate", func() { j.in.Extrapolated = j.in.Filtered.Extrapolate(trace.ExtrapolateOptions{}) })
	step("trace.aggregate", func() { j.in.Caches = j.in.Filtered.AggregateCaches() })
}

// experiment computes and renders one table or figure and returns the
// digest of what it rendered; ok is false when there was nothing.
func (j *reproJob) experiment(id string) (digest string, ok bool, err error) {
	in := j.in
	in.Only = []string{id}
	exps := analysis.FullSuite(in)
	if len(exps) != 1 {
		return "", false, nil
	}
	h := sha256.New()
	n := &countingWriter{w: h}
	if err := exps[0].Render(n); err != nil {
		return "", false, err
	}
	return hex.EncodeToString(h.Sum(nil)), n.n > 0, nil
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

func childRepro(m *marker, seed uint64, path string) error {
	// The input was made by the parent; this process has no set-up of
	// its own beyond starting.
	if err := m.mark(m.take("ready")); err != nil {
		return err
	}
	var job reproJob
	if err := job.load(path, seed); err != nil {
		return err
	}
	if err := m.mark(m.take("load")); err != nil {
		return err
	}
	job.derive(func(_ string, fn func()) { fn() })
	if err := m.mark(m.take("derive")); err != nil {
		return err
	}
	for _, id := range analysis.SuiteIDs() {
		digest, ok, err := job.experiment(id)
		if err != nil {
			return fmt.Errorf("experiment %s: %w", id, err)
		}
		r := m.take(id)
		r.Ops, r.Digest = 1, digest
		if !ok {
			r.Failed = 1
		}
		if err := m.mark(r); err != nil {
			return err
		}
	}
	return nil
}

// startServer is edserved on a trace day, listening on a loopback port
// of the kernel's choosing.
func startServer(path string) (*serve.Server, net.Listener, error) {
	tr, err := trace.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	if serveDay >= len(tr.Days) {
		return nil, nil, fmt.Errorf("trace has %d days, need day %d", len(tr.Days), serveDay)
	}
	srv := serve.New(serve.SnapshotFromTrace(tr, serveDay), serve.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	return srv, ln, nil
}

// childServe serves until its standard input closes, taking a reading
// each time the parent asks for one.
func childServe(m *marker, path string) error {
	srv, ln, err := startServer(path)
	if err != nil {
		return err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()

	ready := m.take("ready")
	ready.Addr = ln.Addr().String()
	if err := m.mark(ready); err != nil {
		return err
	}
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		if sc.Text() != "mark" {
			return fmt.Errorf("mark protocol: unknown command %q", sc.Text())
		}
		if err := m.mark(m.take("mark")); err != nil {
			return err
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("server drain: %w", err)
	}
	if err := <-served; !errors.Is(err, serve.ErrServerClosed) {
		return err
	}
	return sc.Err()
}
