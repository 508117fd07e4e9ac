package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"edonkey/internal/analysis"
	"edonkey/internal/core"
	"edonkey/internal/edonkey"
	"edonkey/internal/protocol"
	"edonkey/internal/serve"
	"edonkey/internal/trace"
)

// The traced run. It makes one repetition of the named workload in this
// process (a serve workload still against a server child), with a span
// around every call into a layer. A serve workload also climbs the
// serving ladder for each request class of its mix: the same seeded
// requests of one class pushed through decode, directory lookup, reply
// rendering, the session loop over an in-memory connection, and loopback
// TCP. A layer the workload never enters did no work and reads 0. Spans
// are kept in memory and written to spans.<workload>.json at the end.
// End-to-end metrics are never taken from this run.

// span is one traced interval. Times are nanoseconds since the tracer
// started; Parent is the ID of the span that caused this one, 0 for a
// root.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// tracer collects spans. It is used from one goroutine at a time.
type tracer struct {
	t0       time.Time
	workload string // stamped on every span
	spans    []span
}

func newTracer(workload string) *tracer { return &tracer{t0: time.Now(), workload: workload} }

// start opens a span and returns its ID.
func (t *tracer) start(name string, parent int) int {
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name, Workload: t.workload,
		StartNS: int64(time.Since(t.t0)),
	})
	return len(t.spans)
}

// stop closes a span and returns its duration.
func (t *tracer) stop(id int) time.Duration {
	s := &t.spans[id-1]
	s.EndNS = int64(time.Since(t.t0))
	return time.Duration(s.EndNS - s.StartNS)
}

// in runs fn inside a span.
func (t *tracer) in(name string, parent int, fn func()) time.Duration {
	id := t.start(name, parent)
	fn()
	return t.stop(id)
}

// total is the summed duration of the spans with this name; self is the
// same minus the time their child spans cover.
func (t *tracer) total(name string) time.Duration { return t.sum(name, false) }
func (t *tracer) self(name string) time.Duration  { return t.sum(name, true) }

func (t *tracer) sum(name string, selfOnly bool) time.Duration {
	var d int64
	for _, s := range t.spans {
		if s.Name == name {
			d += s.EndNS - s.StartNS
		}
		if selfOnly && s.Parent > 0 && t.spans[s.Parent-1].Name == name {
			d -= s.EndNS - s.StartNS
		}
	}
	return time.Duration(d)
}

// spansPath is where a traced run of a workload writes its spans.
func spansPath(workdir, workload string) string {
	return filepath.Join(workdir, "spans."+workload+".json")
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// traced is the state of one traced run.
type traced struct {
	t        *tracer
	seed     uint64
	dir      string
	res      result
	warnings []string
}

// set records a per-layer metric.
func (x *traced) set(name string, v float64) { x.res.Metrics[name] = v }

func (x *traced) warn(format string, args ...any) {
	x.warnings = append(x.warnings, fmt.Sprintf(format, args...))
}

func (x *traced) problem(format string, args ...any) {
	x.res.Problems = append(x.res.Problems, fmt.Sprintf(format, args...))
}

// traceRun makes the traced run of one workload and measures the tracing
// overhead against an untraced repetition of the same workload.
func traceRun(workload string, seed uint64, workdir string) (result, error) {
	// This process stands in for the system under test.
	runtime.GOMAXPROCS(sutProcs)
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return result{}, err
	}
	dir, err := os.MkdirTemp(workdir, "trace-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)

	x := &traced{t: newTracer(workload), seed: seed, dir: dir, res: result{Metrics: map[string]float64{}}}
	for _, d := range perLayerMetrics {
		x.set(d.Name, 0)
	}
	var tracedPerOp float64 // traced wall time per op
	if m, n, ok := serveLoad(workload); ok {
		tracedPerOp, err = x.serving(workload, m, n)
	} else if workload == "crawl" {
		tracedPerOp, err = x.crawl()
	} else if workload == "repro" {
		tracedPerOp, err = x.repro()
	} else {
		err = fmt.Errorf("unknown workload %q (have %v)", workload, workloadNames)
	}
	if err != nil {
		return x.res, fmt.Errorf("traced %s: %w", workload, err)
	}

	plain, err := runRepetition(workload, seed, dir)
	if err != nil {
		return x.res, fmt.Errorf("untraced %s: %w", workload, err)
	}
	var wall, cpu time.Duration
	ops := 0
	for _, s := range plain.Segments {
		wall += s.Wall
		cpu += s.CPU
		ops += s.Ops
	}
	x.set("bench.trace_overhead_pct", 100*(tracedPerOp/(wall.Seconds()/float64(ops))-1))
	x.set("bench.untraced_wall_s", wall.Seconds())
	x.set("bench.untraced_ops_per_s", float64(ops)/wall.Seconds())
	x.set("bench.untraced_cpu_us_per_op", float64(cpu.Nanoseconds())/1e3/float64(ops))

	if err := x.t.write(spansPath(workdir, workload)); err != nil {
		return x.res, err
	}
	fmt.Fprintf(os.Stderr, "traced run: %d spans in %s\n", len(x.t.spans), spansPath(workdir, workload))
	for _, w := range x.warnings {
		fmt.Fprintln(os.Stderr, "warning:", w)
	}
	return x.res, nil
}

// addUp warns when a batch workload's layers do not account for its
// traced wall time: "the layers must add up".
func (x *traced) addUp(workload string, wall time.Duration, layers map[string]time.Duration) {
	var sum time.Duration
	for _, d := range layers {
		sum += d
	}
	if diff := (sum - wall).Seconds() / wall.Seconds(); diff > 0.10 || diff < -0.10 {
		names := make([]string, 0, len(layers))
		for name := range layers {
			names = append(names, name)
		}
		sort.Strings(names)
		x.warn("%s: layers %s sum to %.3fs, %.0f%% off the traced wall %.3fs",
			workload, strings.Join(names, "+"), sum.Seconds(), 100*diff, wall.Seconds())
	}
}

// timedSink is a trace.DaySink that spans every AppendDay of the sink it
// wraps, as a child of the crawl day in flight.
type timedSink struct {
	inner  trace.DaySink
	t      *tracer
	parent int
}

func (s *timedSink) AppendDay(d *trace.DaySnapshot) error {
	id := s.t.start("trace.edt_append", s.parent)
	defer s.t.stop(id)
	return s.inner.AppendDay(d)
}

// crawl traces the crawl workload and a twin world stepped alone.
func (x *traced) crawl() (wallPerOp float64, err error) {
	t := x.t
	path := filepath.Join(x.dir, "crawl.edt")
	root := t.start("crawl", 0)

	build := t.start("workload.build", root)
	w, err := crawlWorld()
	x.set("workload.build_s", t.stop(build).Seconds())
	if err != nil {
		return 0, err
	}
	job, err := newCrawlJob(w, path)
	if err != nil {
		return 0, err
	}
	sink := &timedSink{inner: job.writer, t: t}
	cpu0 := selfCPU()
	run := t.start("crawler.run", root)
	// Progress fires at the end of every day: Progress to Progress is
	// one day of step, sweep, browse and append.
	day := t.start("crawler.day", run)
	sink.parent = day
	job.crawler.Progress = func(d, total int) {
		t.stop(day)
		if d+1 < total {
			day = t.start("crawler.day", run)
			sink.parent = day
		}
	}
	if err := job.crawler.RunStream(crawlDays, sink); err != nil {
		job.file.Close()
		return 0, err
	}
	fin := t.start("trace.edt_finish", run)
	err = job.finish()
	finish := t.stop(fin)
	if err != nil {
		return 0, err
	}
	wall := t.stop(run)
	cpu := selfCPU() - cpu0
	t.stop(root)
	st := job.crawler.Stats
	job, w = nil, nil

	// The steps inside the run cannot be seen from outside the crawler,
	// so an identical world is stepped alone and its step time is taken
	// out of the days' self time.
	twin := t.start("workload.step_alone", 0)
	w2, err := crawlWorld()
	if err != nil {
		return 0, err
	}
	for d := 1; d < crawlDays; d++ {
		t.in("workload.step", twin, w2.Step)
	}
	t.stop(twin)

	step, appendDay := t.total("workload.step"), t.total("trace.edt_append")
	daySelf := t.self("crawler.day") - step
	info, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	x.set("workload.step_s", step.Seconds())
	x.set("crawler.day_self_s", daySelf.Seconds())
	x.set("crawler.queries", float64(st.Queries))
	x.set("crawler.snapshots", float64(st.Snapshots))
	x.set("crawler.browse_attempts", float64(st.BrowseAttempts))
	x.set("crawler.browse_failed", float64(st.BrowseFailed))
	x.set("trace.edt_append_s", appendDay.Seconds())
	x.set("trace.edt_finish_s", finish.Seconds())
	x.set("trace.edt_bytes_per_snapshot", float64(info.Size())/float64(st.Snapshots))
	x.set("runner.cpu_per_wall.crawl", cpu.Seconds()/wall.Seconds())
	x.addUp("crawl", wall, map[string]time.Duration{
		"workload.step": step, "crawler.day_self": daySelf,
		"trace.edt_append": appendDay, "trace.edt_finish": finish,
	})
	x.res.Attempted += st.Snapshots
	x.res.Failed += st.BrowseFailed
	return wall.Seconds() / float64(st.Snapshots), nil
}

// experimentLayer says which per-layer metric an experiment's time
// counts towards.
func experimentLayer(id string) string {
	switch id {
	case "fig13", "fig14", "fig15":
		return "analysis." + id
	case "table3", "fig18", "fig19", "fig20", "fig21", "fig22", "fig23":
		return "analysis.sim"
	}
	return "analysis.static"
}

// repro traces the repro workload.
func (x *traced) repro() (wallPerOp float64, err error) {
	t := x.t
	path := filepath.Join(x.dir, "repro.edt")
	if _, err := genTrace(reproPeers, reproDays, path); err != nil {
		return 0, err
	}
	runtime.GC()

	var job reproJob
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	cpu0 := selfCPU()
	root := t.start("repro", 0)
	load := t.start("trace.load", root)
	err = job.load(path, x.seed)
	t.stop(load)
	if err != nil {
		return 0, err
	}
	runtime.ReadMemStats(&ms)
	x.set("trace.load_alloc_mb", float64(ms.TotalAlloc-alloc0)/(1<<20))

	job.derive(func(layer string, fn func()) { t.in(layer, root, fn) })
	sweep0 := core.SweepTimingsSnapshot()
	ids := analysis.SuiteIDs()
	for _, id := range ids {
		sp := t.start(experimentLayer(id), root)
		_, ok, err := job.experiment(id)
		t.stop(sp)
		if err != nil {
			return 0, fmt.Errorf("experiment %s: %w", id, err)
		}
		x.res.Attempted++
		if !ok {
			x.res.Failed++
		}
	}
	sweep := core.SweepTimingsSnapshot().Sub(sweep0)
	wall := t.stop(root)
	cpu := selfCPU() - cpu0

	layers := map[string]time.Duration{}
	for _, name := range []string{
		"trace.load", "trace.filter", "trace.extrapolate", "trace.aggregate",
		"analysis.fold", "analysis.static", "analysis.fig13", "analysis.fig14", "analysis.fig15", "analysis.sim",
	} {
		layers[name] = t.total(name)
		x.set(name+"_s", layers[name].Seconds())
	}
	x.set("core.sweep_prestate_s", sweep.Prestate.Seconds())
	x.set("core.sweep_eval_s", sweep.Eval.Seconds())
	x.set("core.sweep_commit_s", sweep.Commit.Seconds())
	x.set("core.sim_events", float64(sweep.Events))
	x.set("core.reeval_ratio", float64(sweep.Reevaluated)/float64(max(1, sweep.Events)))
	x.set("runner.cpu_per_wall.repro", cpu.Seconds()/wall.Seconds())
	x.addUp("repro", wall, layers)
	return wall.Seconds() / float64(len(ids)), nil
}

// ladderSizes is how many requests of a class each rung is given.
var ladderSizes = map[reqClass]int{
	classSources: 40000, classUsers: 8000, classSearch: 4000, classLogin: 40000,
}

// rungPasses is how many times an in-process rung runs; its time is the
// fastest pass.
const rungPasses = 3

// rung times fn, which handles n requests, and returns the fastest
// pass's nanoseconds per request and the last pass's allocations per
// request.
func (x *traced) rung(name string, parent, n int, fn func()) (ns, allocs float64) {
	var ms runtime.MemStats
	best := time.Duration(1<<63 - 1)
	for p := 0; p < rungPasses; p++ {
		runtime.ReadMemStats(&ms)
		m0 := ms.Mallocs
		best = min(best, x.t.in(name, parent, fn))
		runtime.ReadMemStats(&ms)
		allocs = float64(ms.Mallocs-m0) / float64(n)
	}
	return float64(best.Nanoseconds()) / float64(n), allocs
}

// renderReply is the server's answer to one request, rendered in
// process: ServerCore.AppendReply for what the core owns, and the
// session's own IDChange for a login.
func renderReply(sc *protocol.ServerCore, dst []byte, m protocol.Message) []byte {
	if login, ok := m.(*protocol.LoginRequest); ok {
		id := login.Endpoint.IP
		if id < protocol.LowIDThreshold {
			id += protocol.LowIDThreshold
		}
		dst, _ = protocol.AppendMessage(dst, &protocol.IDChange{ClientID: id})
		return dst
	}
	dst, _ = sc.AppendReply(dst, m)
	return dst
}

// decodeAll decodes a plan's requests from memory.
func decodeAll(p connPlan, into []protocol.Message) ([]protocol.Message, error) {
	rd := bytes.NewReader(p.wire)
	var scratch []byte
	for range p.replyOps {
		m, sc, err := protocol.ReadMessageInto(rd, scratch)
		if err != nil {
			return into, err
		}
		scratch = sc
		into = append(into, m)
	}
	return into, nil
}

// newOracle is the protocol core edserved puts behind its sessions, over
// a snapshot held in this process.
func newOracle(snap *serve.Snapshot) *protocol.ServerCore {
	return &protocol.ServerCore{Dir: snap, MaxUserReplies: edonkey.DefaultMaxUserReplies, SupportsUserSearch: true}
}

// oracleDigest renders the replies to a segment's plans in process and
// digests them the way the load generator digests what the server sent.
func oracleDigest(sc *protocol.ServerCore, plans []connPlan) (string, error) {
	var parts []string
	var reply []byte
	for _, p := range plans {
		msgs, err := decodeAll(p, nil)
		if err != nil {
			return "", err
		}
		var crc uint32
		var n int64
		for _, m := range msgs {
			reply = renderReply(sc, reply[:0], m)
			crc = crc32.Update(crc, castagnoli, reply)
			n += int64(len(reply))
		}
		parts = append(parts, streamDigest(crc, n))
	}
	return strings.Join(parts, ","), nil
}

// serving traces the server's set-up, the ladder of every class in the
// mix, and a few segments of the workload, checking every reply stream
// against the oracle. It returns the traced wall time per op.
func (x *traced) serving(name string, m mix, segRequests int) (wallPerOp float64, err error) {
	path := filepath.Join(x.dir, "serve.edt")
	sess, err := openServeSession(x.seed, path)
	if err != nil {
		return 0, err
	}
	if wallPerOp, err = x.servingOn(sess, path, name, m, segRequests); err != nil {
		sess.abort()
		return 0, err
	}
	_, err = sess.close()
	return wallPerOp, err
}

func (x *traced) servingOn(sess *serveSession, path, name string, m mix, segRequests int) (wallPerOp float64, err error) {
	snap, err := x.serverState(path)
	if err != nil {
		return 0, err
	}
	sc := newOracle(snap)
	srv := serve.New(snap, serve.Config{})
	tcpNS := map[reqClass]float64{}
	for _, e := range m {
		if !slices.Contains(ladderClasses, e.class) {
			continue
		}
		if tcpNS[e.class], err = x.ladder(sess, snap, sc, srv, e.class, 100+int(e.class)); err != nil {
			return 0, fmt.Errorf("ladder %s: %w", e.class, err)
		}
	}
	return x.servedSegments(sess, sc, name, m, segRequests, tcpNS)
}

// serverState rebuilds in this process, from the same file, what the
// server child holds: the rungs below the socket and the oracle run on
// it.
func (x *traced) serverState(path string) (*serve.Snapshot, error) {
	t := x.t
	root := t.start("serve.setup", 0)
	defer t.stop(root)
	var tr *trace.Trace
	var err error
	load := t.in("trace.load", root, func() { tr, err = trace.ReadFile(path) })
	if err != nil {
		return nil, err
	}
	x.set("trace.load_s", load.Seconds())
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	heap0 := ms.HeapAlloc
	var snap *serve.Snapshot
	build := t.in("serve.snapshot_build", root, func() { snap = serve.SnapshotFromTrace(tr, serveDay) })
	x.set("serve.snapshot_build_s", build.Seconds())
	runtime.GC()
	runtime.ReadMemStats(&ms)
	// The trace is live across both readings, so the heap grew by the
	// snapshot alone.
	x.set("serve.snapshot_bytes_per_user", float64(ms.HeapAlloc-heap0)/float64(snap.NumUsers()))
	runtime.KeepAlive(tr)
	return snap, nil
}

// ladder pushes one seeded stream of class c through every rung and
// returns the top rung: the server child's CPU nanoseconds per request.
func (x *traced) ladder(sess *serveSession, snap *serve.Snapshot, sc *protocol.ServerCore, srv *serve.Server, c reqClass, seg int) (tcpNS float64, err error) {
	t := x.t
	name, n, only := c.String(), ladderSizes[c], mix{{c, 100}}
	root := t.start("ladder."+name, 0)
	defer t.stop(root)
	plan := planConn(sess.vocab, only, x.seed, 0, seg, n)
	set := func(rung string, ns, allocs float64) {
		x.set(rung+"_ns."+name, ns)
		x.set(rung+"_allocs."+name, allocs)
	}

	msgs := make([]protocol.Message, 0, n)
	ns, allocs := x.rung("protocol.decode", root, n, func() { msgs, err = decodeAll(plan, msgs[:0]) })
	if err != nil {
		return 0, err
	}
	set("protocol.decode", ns, allocs)

	if c != classLogin { // a login consults no directory
		ns, allocs = x.rung("serve.lookup", root, n, func() { lookupAll(snap, msgs) })
		set("serve.lookup", ns, allocs)
	}

	var reply []byte
	ns, allocs = x.rung("protocol.render", root, n, func() {
		for _, m := range msgs {
			reply = renderReply(sc, reply[:0], m)
		}
	})
	set("protocol.render", ns, allocs)

	var out connOutcome
	ns, allocs = x.rung("serve.session", root, n, func() {
		client, server := net.Pipe()
		done := make(chan struct{})
		go func() {
			srv.ServeConn(server)
			close(done)
		}()
		out = drive(client, newFrameCounter(client), plan)
		client.Close()
		<-done
	})
	if out.err != nil || out.failed > 0 {
		x.problem("ladder %s: the session rung failed %d requests: %v", name, out.failed, out.err)
	}
	set("serve.session", ns, allocs)

	sp := t.start("serve.tcp", root)
	served, _, err := sess.segment(only, seg, n)
	t.stop(sp)
	if err != nil {
		return 0, err
	}
	tcpNS = float64(served.CPU.Nanoseconds()) / float64(served.Ops)
	set("serve.tcp", tcpNS, float64(served.Mallocs)/float64(served.Ops))

	for _, pair := range [][2]string{
		{"serve.lookup", "protocol.render"}, {"protocol.render", "serve.session"},
		{"protocol.decode", "serve.session"}, {"serve.session", "serve.tcp"},
	} {
		if lo, hi := x.res.Metrics[pair[0]+"_ns."+name], x.res.Metrics[pair[1]+"_ns."+name]; lo > hi {
			x.warn("ladder %s: %s_ns (%.0f) is above %s_ns (%.0f)", name, pair[0], lo, pair[1], hi)
		}
	}
	return tcpNS, nil
}

// tracedSegments is how many segments of a serve workload the traced
// run plays.
const tracedSegments = 3

// servedSegments plays a few traced segments of one serve workload,
// checks each reply stream against the oracle and the ladder's top rung
// against the workload's CPU per op, and returns the traced wall time
// per op.
func (x *traced) servedSegments(sess *serveSession, sc *protocol.ServerCore, name string, m mix, n int, tcpNS map[reqClass]float64) (wallPerOp float64, err error) {
	t := x.t
	root := t.start(name, 0)
	defer t.stop(root)
	if _, _, err := sess.segment(m, 0, n/4); err != nil { // warm-up
		return 0, err
	}
	var total segment
	var clientCPU time.Duration
	var replyBytes int64
	var bursts []time.Duration
	for k := 1; k <= tracedSegments; k++ {
		sp := t.start(fmt.Sprintf("%s.seg%02d", name, k), root)
		seg, out, err := sess.segment(m, k, n)
		t.stop(sp)
		if err != nil {
			return 0, err
		}
		want, err := oracleDigest(sc, planSegment(sess.vocab, m, x.seed, k, n))
		if err != nil {
			return 0, err
		}
		if seg.Digest != want {
			x.problem("%s %s: the server sent %s, ServerCore.AppendReply renders %s", name, seg.Name, seg.Digest, want)
		}
		total.Wall += seg.Wall
		total.CPU += seg.CPU
		total.Ops += seg.Ops
		total.Failed += seg.Failed
		total.SysReads += seg.SysReads
		total.SysWrites += seg.SysWrites
		clientCPU += out.clientCPU
		replyBytes += out.replyBytes
		bursts = append(bursts, out.bursts...)
	}
	x.res.Attempted += total.Ops
	x.res.Failed += total.Failed
	ops := float64(total.Ops)

	// The top rung, weighted by the workload's mix over the classes the
	// ladder has, should be the workload's CPU per op.
	var ladderNS, weight float64
	for _, e := range m {
		if ns, ok := tcpNS[e.class]; ok {
			ladderNS += ns * float64(e.weight)
			weight += float64(e.weight)
		}
	}
	ladderNS /= weight
	cpuNS := float64(total.CPU.Nanoseconds()) / ops
	if d := ladderNS/cpuNS - 1; d > 0.15 || d < -0.15 {
		x.warn("%s: serve.tcp_ns weighted by the mix is %.0f ns, %.0f%% off the traced %.0f ns CPU per op",
			name, ladderNS, 100*d, cpuNS)
	}
	sort.Slice(bursts, func(i, j int) bool { return bursts[i] < bursts[j] })
	x.set("serve.reply_bytes_per_op", float64(replyBytes)/ops)
	x.set("serve.read_syscalls_per_op", float64(total.SysReads)/ops)
	x.set("serve.write_syscalls_per_op", float64(total.SysWrites)/ops)
	x.set("loadgen.p50_us", float64(bursts[len(bursts)/2].Nanoseconds())/1e3)
	x.set("loadgen.p99_us", float64(bursts[len(bursts)*99/100].Nanoseconds())/1e3)
	x.set("loadgen.client_cpu_us_per_op", float64(clientCPU.Nanoseconds())/1e3/ops)
	return total.Wall.Seconds() / ops, nil
}

// lookupAll does the directory lookup each request needs and nothing
// else: no decoding, no rendering.
func lookupAll(snap *serve.Snapshot, msgs []protocol.Message) {
	for _, m := range msgs {
		switch req := m.(type) {
		case *protocol.GetSources:
			snap.ForEachSource(req.Hash, func(protocol.Endpoint) bool { return true })
		case *protocol.SearchUser:
			n := 0
			snap.UsersWithPrefix(strings.ToLower(req.Query), func(protocol.UserEntry) bool {
				n++
				return n < edonkey.DefaultMaxUserReplies
			})
		case *protocol.SearchRequest:
			lookupSink = snap.SearchFiles(strings.ToLower(req.Keyword))
		}
	}
}

// lookupSink keeps SearchFiles' result alive so the call is not removed.
var lookupSink []protocol.FileEntry
