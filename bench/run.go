package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"time"

	"edonkey/internal/serve"
	"edonkey/internal/trace"
)

// repetition is what one (set-up, then K timed segments) pass yielded.
type repetition struct {
	Setup     time.Duration // from the start of the pass until the system is ready and warm
	Segments  []segment
	PeakRSSKB int64  // the child's VmHWM at its last mark
	Output    string // digest of the file the pass wrote, if it wrote one
}

// child is a running system under test.
type child struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	marks *markReader
}

// startChild re-executes this binary as the system under test. The
// child's processor count is set here, never inherited.
func startChild(workload string, seed uint64, path string) (*child, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-child", workload, "-seed", strconv.FormatUint(seed, 10), "-path", path)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(sutProcs))
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, stdin: stdin, marks: newMarkReader(stdout)}
	if _, err := c.marks.expect("start"); err != nil {
		c.kill()
		return nil, err
	}
	return c, nil
}

// wait lets the child finish; closing its input is the signal a server
// child exits on.
func (c *child) wait() error {
	c.stdin.Close()
	if err := c.cmd.Wait(); err != nil {
		return fmt.Errorf("child: %w", err)
	}
	return nil
}

// kill stops a child on an error path and reaps it.
func (c *child) kill() {
	c.stdin.Close()
	_ = c.cmd.Process.Kill() // already gone is fine
	_ = c.cmd.Wait()         // the error is the kill we just sent
}

// runBatch runs one repetition of crawl or repro: the child does the
// work and marks its own segments.
func runBatch(workload string, seed uint64, dir string) (repetition, error) {
	var rep repetition
	path := filepath.Join(dir, workload+".edt")
	t0 := time.Now()
	if workload == "repro" {
		if _, err := genTrace(reproPeers, reproDays, path); err != nil {
			return rep, err
		}
	}
	c, err := startChild(workload, seed, path)
	if err != nil {
		return rep, err
	}
	prev, err := c.marks.expect("ready")
	if err != nil {
		c.kill()
		return rep, err
	}
	rep.Setup = time.Since(t0)
	for {
		cur, err := c.marks.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			c.kill()
			return rep, err
		}
		rep.Segments = append(rep.Segments, between(prev, cur))
		prev = cur
	}
	rep.PeakRSSKB = prev.PeakRSSKB
	if err := c.wait(); err != nil {
		return rep, err
	}
	if workload == "crawl" {
		if rep.Output, err = fileSHA256(path); err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// serveSession is a server child under load from this process: the
// child's CPU, memory and allocations are the server's alone.
type serveSession struct {
	child *child
	fleet *loadClient
	vocab vocab
	seed  uint64
	prev  reading // the child's reading at the end of the last segment
}

// openServeSession makes the input trace, starts the server child on it
// and logs in on every connection.
func openServeSession(seed uint64, path string) (*serveSession, error) {
	tr, err := genTrace(servePeers, serveDays, path)
	if err != nil {
		return nil, err
	}
	s := &serveSession{vocab: harvest(tr, serveDay), seed: seed}
	tr = nil
	runtime.GC() // the generator's garbage must not be collected during load

	if s.child, err = startChild("serve", seed, path); err != nil {
		return nil, err
	}
	ready, err := s.child.marks.expect("ready")
	if err != nil {
		s.child.kill()
		return nil, err
	}
	if s.fleet, err = dialFleet(ready.Addr); err != nil {
		s.child.kill()
		return nil, err
	}
	if _, _, err := s.segment(mix{{classLogin, 100}}, 0, loadConns); err != nil {
		s.abort()
		return nil, err
	}
	return s, nil
}

// segment plays segment k of n requests drawn from m and returns what
// answering them cost the server, with the generator's wall time: first
// byte sent to last reply.
func (s *serveSession) segment(m mix, k, n int) (segment, segmentOutcome, error) {
	plans := planSegment(s.vocab, m, s.seed, k, n)
	if s.prev.Name == "" {
		var err error
		if s.prev, err = s.child.takeMark(); err != nil {
			return segment{}, segmentOutcome{}, err
		}
	}
	out, err := s.fleet.runSegment(plans)
	if err != nil {
		return segment{}, out, fmt.Errorf("segment %d: %w", k, err)
	}
	cur, err := s.child.takeMark()
	if err != nil {
		return segment{}, out, err
	}
	seg := between(s.prev, cur)
	s.prev = cur
	seg.Name = fmt.Sprintf("seg%02d", k)
	seg.Wall = out.wall
	seg.Ops, seg.Failed, seg.Digest = out.ops, out.failed, out.digest
	return seg, out, nil
}

// close drains the server and returns its peak resident set as of the
// last segment.
func (s *serveSession) close() (peakRSSKB int64, err error) {
	defer s.fleet.close()
	return s.prev.PeakRSSKB, s.child.wait()
}

// abort is close for error paths.
func (s *serveSession) abort() {
	s.fleet.close()
	s.child.kill()
}

// runServe runs one repetition of a serve workload. Segment 0, a quarter
// of a timed segment of the same mix, is the warm-up.
func runServe(m mix, segRequests int, seed uint64, dir string) (repetition, error) {
	var rep repetition
	t0 := time.Now()
	s, err := openServeSession(seed, filepath.Join(dir, "serve.edt"))
	if err != nil {
		return rep, err
	}
	if _, _, err := s.segment(m, 0, segRequests/4); err != nil {
		s.abort()
		return rep, err
	}
	rep.Setup = time.Since(t0)
	for k := 1; k <= serveSegments; k++ {
		seg, _, err := s.segment(m, k, segRequests)
		if err != nil {
			s.abort()
			return rep, err
		}
		rep.Segments = append(rep.Segments, seg)
	}
	rep.PeakRSSKB, err = s.close()
	return rep, err
}

// takeMark asks a server child for a reading.
func (c *child) takeMark() (reading, error) {
	if _, err := io.WriteString(c.stdin, "mark\n"); err != nil {
		return reading{}, err
	}
	return c.marks.expect("mark")
}

func fileSHA256(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// serveLoad is the request mix and segment size of a serve workload.
func serveLoad(workload string) (m mix, segRequests int, ok bool) {
	switch workload {
	case "serve-lookup":
		return lookupMix, lookupSegRequests, true
	case "serve-search":
		return searchMix, searchSegRequests, true
	}
	return nil, 0, false
}

// runRepetition dispatches on the workload name.
func runRepetition(workload string, seed uint64, dir string) (repetition, error) {
	if m, n, ok := serveLoad(workload); ok {
		return runServe(m, n, seed, dir)
	}
	if workload == "crawl" || workload == "repro" {
		return runBatch(workload, seed, dir)
	}
	return repetition{}, fmt.Errorf("unknown workload %q (have %v)", workload, workloadNames)
}

// serveOracle renders in this process, from the trace file the server
// child was given, the replies to timed segment k and digests them the
// way the load generator digests what the server sent.
func serveOracle(path string, m mix, seed uint64, k, n int) (string, error) {
	tr, err := trace.ReadFile(path)
	if err != nil {
		return "", err
	}
	sc := newOracle(serve.SnapshotFromTrace(tr, serveDay))
	return oracleDigest(sc, planSegment(harvest(tr, serveDay), m, seed, k, n))
}

// result is what a run reports.
type result struct {
	Metrics   map[string]float64
	Attempted int
	Failed    int
	// Problems lists every correctness check that did not hold; empty
	// means the outputs are correct.
	Problems []string
	// Samples is the number of timed segment executions behind each
	// timing: K × R.
	Samples int
}

// golden holds the seed-1 outputs the pinned-output contract fixes.
type golden struct {
	CrawlEDT string            `json:"crawl_edt_sha256"`
	Repro    map[string]string `json:"repro_render_sha256"`
}

// summarize turns R repetitions into the end-to-end metrics and runs
// the checks that compare repetitions with each other and, on seed 1,
// with the goldens. dir still holds the last repetition's files.
func summarize(workload string, seed uint64, reps []repetition, dir string, gold *golden) (result, error) {
	res := result{Metrics: map[string]float64{}}
	problem := func(format string, args ...any) {
		res.Problems = append(res.Problems, fmt.Sprintf(format, args...))
	}

	first := reps[0]
	walls := make([][]time.Duration, len(reps))
	cpus := make([][]time.Duration, len(reps))
	var setups, rss, mallocs, bytes []float64
	ops := 0
	for _, s := range first.Segments {
		ops += s.Ops
	}
	for r, rep := range reps {
		var m, b uint64
		for k, s := range rep.Segments {
			walls[r] = append(walls[r], s.Wall)
			cpus[r] = append(cpus[r], s.CPU)
			m += s.Mallocs
			b += s.AllocBytes
			res.Attempted += s.Ops
			res.Failed += s.Failed
			if k < len(first.Segments) && (s.Ops != first.Segments[k].Ops || s.Digest != first.Segments[k].Digest) {
				problem("segment %s: repetition %d did %d ops with digest %q, repetition 0 did %d with %q",
					s.Name, r, s.Ops, s.Digest, first.Segments[k].Ops, first.Segments[k].Digest)
			}
		}
		if rep.Output != first.Output {
			problem("repetition %d wrote %s, repetition 0 wrote %s", r, rep.Output, first.Output)
		}
		if rep.PeakRSSKB == 0 {
			return res, fmt.Errorf("repetition %d: the child could not read VmHWM from /proc/self/status", r)
		}
		setups = append(setups, rep.Setup.Seconds())
		rss = append(rss, float64(rep.PeakRSSKB)/1024)
		mallocs = append(mallocs, float64(m))
		bytes = append(bytes, float64(b))
	}
	wall, err := sumOfMins(walls)
	if err != nil {
		return res, err
	}
	cpu, err := sumOfMins(cpus)
	if err != nil {
		return res, err
	}
	if ops == 0 {
		return res, fmt.Errorf("%s did no operations", workload)
	}
	res.Samples = len(reps) * len(first.Segments)
	res.Metrics["setup_s"] = slices.Min(setups)
	res.Metrics["wall_s"] = wall.Seconds()
	res.Metrics["throughput"] = float64(ops) / wall.Seconds()
	res.Metrics["cpu_us_per_op"] = float64(cpu.Nanoseconds()) / 1e3 / float64(ops)
	// A collection that starts late while the child loads its input
	// raises the peak by a tenth in one repetition out of three; nothing
	// lowers it. So the peak is filtered like the timings, by the minimum.
	res.Metrics["peak_rss_mb"] = slices.Min(rss)
	res.Metrics["allocs_per_op"] = median(mallocs) / float64(ops)
	res.Metrics["alloc_kb_per_op"] = median(bytes) / 1024 / float64(ops)

	switch workload {
	case "crawl":
		// The file must read back as the trace the crawler says it wrote.
		tr, err := trace.ReadFile(filepath.Join(dir, "crawl.edt"))
		if err != nil {
			problem("read back: %v", err)
		} else if got := tr.Observations(); got != ops {
			problem("read back: %d observations, crawler captured %d snapshots", got, ops)
		}
		// The crawl is the same job for every seed, so the golden always applies.
		if first.Output != gold.CrawlEDT {
			problem("crawl.edt sha256 %s differs from golden %s", first.Output, gold.CrawlEDT)
		}
	case "repro":
		if seed == 1 {
			for _, s := range first.Segments {
				if s.Ops > 0 && s.Digest != gold.Repro[s.Name] {
					problem("%s render sha256 %s differs from golden %s", s.Name, s.Digest, gold.Repro[s.Name])
				}
			}
		}
	case "serve-lookup", "serve-search":
		// The repetitions agree with each other; the first timed segment
		// must also agree with the replies rendered without a server. The
		// traced run checks every segment it plays this way.
		m, n, _ := serveLoad(workload)
		want, err := serveOracle(filepath.Join(dir, "serve.edt"), m, seed, 1, n)
		if err != nil {
			problem("oracle: %v", err)
		} else if got := first.Segments[0].Digest; got != want {
			problem("%s: the server sent %s, ServerCore.AppendReply renders %s", first.Segments[0].Name, got, want)
		}
	}
	return res, nil
}

//go:embed testdata/golden.json
var goldenJSON []byte

func loadGolden() (*golden, error) {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("testdata/golden.json: %w", err)
	}
	return &g, nil
}
