package core

import (
	"sync"
	"sync/atomic"

	"edonkey/internal/runner"
	"edonkey/internal/trace"
)

// The interleaved sweep scheduler. RunSweep's old shape — one Collect
// job per point, each point sharding its own event loop on the shared
// pool — serialized the sweep behind chunk barriers: while a point's
// chunk committed (serial by construction), the workers evaluating it
// sat idle, and tail points queued behind slow ones. Here every
// in-flight point is a small state machine cycling drawChunk → parallel
// evalRange → commitChunk on one runner.Stream, so the pool always has
// speculation work from *some* point while any other point commits.
//
// Determinism is untouched by the interleaving: a point's chunk phases
// are strictly ordered through the stream (the last evaluation job of a
// chunk submits the commit; the commit submits the next chunk's
// evaluations), points share only immutable prestates and
// content-irrelevant scratch, and each writes only its own result slot.
// Chunk sizing adapts per point from its own re-evaluation counts —
// schedule state, identical for every worker count — so the outputs are
// bit-identical to a serial loop over RunSim for any pool and any
// interleaving.
type sweepSched struct {
	pool    *runner.Pool
	stream  *runner.Stream
	caches  [][]trace.FileID
	opts    []SimOptions
	results []SimResult
	groups  map[PrestateKey]*sweepGroup

	// scratches is the shared evaluator-scratch checkout: at most
	// Workers() stream jobs run at once, each holding at most one, so
	// receives never block for long. Ablations preserve the outer cache
	// slice length, so one sizing fits every point's two-hop dedup.
	scratches chan *twoHopScratch

	// next is the index of the next unstarted point; admission keeps at
	// most Workers() points in flight so early points finish (and their
	// prestates release) before late ones begin.
	next atomic.Int64
}

// sweepGroup shares one prestate among all sweep points with the same
// PrestateKey. The prestate is built lazily by whichever point starts
// first (others block briefly on the Once — the builder is itself a
// running worker, so progress is guaranteed) and released once the last
// point of the group finishes, bounding sweep memory to the groups in
// flight rather than all distinct keys.
type sweepGroup struct {
	opt  SimOptions // representative options; only PrestateKey fields are read
	refs atomic.Int32
	once sync.Once
	pre  *SimPrestate
}

func (g *sweepGroup) prestate(caches [][]trace.FileID) *SimPrestate {
	g.once.Do(func() { g.pre = NewSimPrestate(caches, g.opt) })
	return g.pre
}

func (g *sweepGroup) release() {
	if g.refs.Add(-1) == 0 {
		g.pre = nil
	}
}

// sweepGroups indexes the options by prestate key with per-group point
// counts, shared by the serial and interleaved sweep paths.
func sweepGroups(opts []SimOptions) map[PrestateKey]*sweepGroup {
	groups := make(map[PrestateKey]*sweepGroup)
	for _, opt := range opts {
		key := opt.prestateKey()
		g := groups[key]
		if g == nil {
			g = &sweepGroup{opt: opt}
			groups[key] = g
		}
		g.refs.Add(1)
	}
	return groups
}

// sweepPoint is one in-flight simulation point: its private state plus
// the countdown that serializes its chunk pipeline on the stream. Its
// evaluation jobs and its commit are built once, when the point starts;
// the jobs read the current chunk's shape from n and sub.
type sweepPoint struct {
	sd       *sweepSched
	idx      int
	group    *sweepGroup
	s        *simState
	n, sub   int // current chunk length and evaluation range width (evalJobs)
	evalLeft atomic.Int32
	evals    []func() // evals[j] evaluates range j of the current chunk
	commit   func()
}

// runSweepInterleaved executes the sweep on the scheduler. Requires
// pool.Workers() > 1 and at least one point.
func runSweepInterleaved(caches [][]trace.FileID, opts []SimOptions, results []SimResult, pool *runner.Pool) {
	sd := &sweepSched{
		pool:      pool,
		stream:    pool.NewStream(),
		caches:    caches,
		opts:      opts,
		results:   results,
		groups:    sweepGroups(opts),
		scratches: make(chan *twoHopScratch, pool.Workers()),
	}
	for i := 0; i < pool.Workers(); i++ {
		sd.scratches <- &twoHopScratch{}
	}
	inflight := min(pool.Workers(), len(opts))
	sd.next.Store(int64(inflight))
	for i := 0; i < inflight; i++ {
		sd.stream.Submit(func() { sd.startPoint(i) })
	}
	sd.stream.Drain()
}

// getScratch checks out an evaluator scratch, sizing its dedup board on
// first two-hop use. Boards persist across points: the epoch counter
// only grows, so marks left by a previous checkout can never alias the
// next epoch.
func (sd *sweepSched) getScratch(twoHop bool) *twoHopScratch {
	sc := <-sd.scratches
	if twoHop && len(sc.queried) < len(sd.caches) {
		sc.queried = make([]uint32, len(sd.caches))
	}
	return sc
}

// startPoint builds point i on its group's shared prestate and starts
// its chunk pipeline.
func (sd *sweepSched) startPoint(i int) {
	opt := sd.opts[i]
	if opt.ListSize <= 0 {
		opt.ListSize = 20
	}
	g := sd.groups[opt.prestateKey()]
	pt := &sweepPoint{
		sd:    sd,
		idx:   i,
		group: g,
		s:     newPointState(g.prestate(sd.caches), opt),
		evals: make([]func(), 4*sd.pool.Workers()),
	}
	pt.s.initChunks(sd.pool.Workers())
	for j := range pt.evals {
		pt.evals[j] = func() { pt.eval(j) }
	}
	pt.commit = func() {
		pt.s.commitChunk()
		pt.advance()
	}
	pt.advance()
}

// advance draws the point's next chunk and fans its evaluation out as
// stream jobs; the job that finishes the chunk's last range submits the
// commit. With no chunk left the point is done: store the result,
// release the prestate and admit the next unstarted point.
func (pt *sweepPoint) advance() {
	n := pt.s.drawChunk()
	if n == 0 {
		pt.sd.results[pt.idx] = pt.s.res
		pt.group.release()
		if i := int(pt.sd.next.Add(1)) - 1; i < len(pt.sd.opts) {
			pt.sd.stream.Submit(func() { pt.sd.startPoint(i) })
		}
		return
	}
	var jobs int
	pt.n = n
	pt.sub, jobs = evalJobs(n, pt.sd.pool.Workers())
	pt.evalLeft.Store(int32(jobs))
	for _, eval := range pt.evals[:jobs] {
		pt.sd.stream.Submit(eval)
	}
}

// eval runs evaluation job j of the current chunk.
func (pt *sweepPoint) eval(j int) {
	sc := pt.sd.getScratch(pt.s.opt.TwoHop)
	pt.s.evalRange(j, j*pt.sub, min((j+1)*pt.sub, pt.n), sc)
	pt.sd.scratches <- sc
	// The last range submits the commit; the atomic countdown orders
	// every spec write before the commit's reads.
	if pt.evalLeft.Add(-1) == 0 {
		pt.sd.stream.Submit(pt.commit)
	}
}
