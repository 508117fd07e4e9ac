package core

import (
	"fmt"
	"math/rand/v2"
	"sync/atomic"
	"time"

	"edonkey/internal/trace"
)

// PrestateKey identifies the sweep-shareable part of SimOptions: every
// field that influences RunSim's setup phase (trace surgery and the
// request-list shuffles) before any strategy state exists. Points of one
// sweep whose options agree on these fields — e.g. an ablation grid
// varying only ListSize, Kind, TwoHop or TrackLoad — share one
// SimPrestate instead of each paying the setup again.
type PrestateKey struct {
	Seed             uint64
	DropTopUploaders float64
	DropTopFiles     float64
	RandomizeSwaps   int
}

// prestateKey extracts the setup-relevant fields of the options.
func (opt SimOptions) prestateKey() PrestateKey {
	return PrestateKey{
		Seed:             opt.Seed,
		DropTopUploaders: opt.DropTopUploaders,
		DropTopFiles:     opt.DropTopFiles,
		RandomizeSwaps:   opt.RandomizeSwaps,
	}
}

// SimPrestate is the immutable, shareable setup of one or more RunSim
// points: the ablated (or pass-through) caches, the shuffled per-peer
// request lists, the sharer pool, the schedule generator's state after
// all setup draws, and the offsets every point sizes its live state by.
// Everything in it is read-only once built — any number of simulation
// points (and their evaluation workers) may consume one prestate
// concurrently. Build with NewSimPrestate, run points with
// RunSimPrestate.
//
// A replica is one (peer, file) entry of the prepared caches, and each
// is requested exactly once. Peer p's replicas are the range
// [off[p], off[p+1]) of the request lists and of a point's share bits.
// Each replica of file f adds one holder to f's list when it commits, so
// the list fills exactly [holderOff[f], holderOff[f+1]) of a point's
// holder buffer, in commit order.
// Offsets are ints: replica totals at paper scale can pass 2^31.
type SimPrestate struct {
	key       PrestateKey
	prepared  [][]trace.FileID // post-ablation caches, sorted per peer
	off       []int            // per-peer replica offsets, len(prepared)+1
	requests  []trace.FileID   // shuffled request lists, back to back in off order
	holderOff []int            // per-file holder offsets (file popularity prefix sums), nFiles+1
	sharers   []trace.PeerID   // peers with a non-empty prepared cache
	rngState  []byte           // schedule PCG state after the setup draws
}

// replicas returns the number of (peer, file) entries in the prepared
// caches, i.e. the number of events a point runs.
func (p *SimPrestate) replicas() int { return p.off[len(p.prepared)] }

// nFiles returns maxFileID+1 over the prepared caches.
func (p *SimPrestate) nFiles() int { return len(p.holderOff) - 1 }

// Key reports the options fields this prestate was built from.
func (p *SimPrestate) Key() PrestateKey { return p.key }

// NewSimPrestate performs RunSim's setup once: PrepareCaches (trace
// surgery, drawing from the schedule stream only when RandomizeSwaps is
// set), the per-peer request-list shuffles, and the sharer census. The
// draw order is exactly RunSim's, and the schedule generator is
// snapshotted afterwards, so a point started from the prestate is
// bit-identical to one that ran the setup itself.
func NewSimPrestate(caches [][]trace.FileID, opt SimOptions) *SimPrestate {
	start := time.Now()
	pcg := rand.NewPCG(opt.Seed, 0x73696d) // "sim"
	rng := rand.New(pcg)
	prepared := PrepareCaches(caches, opt, rng)
	pre := &SimPrestate{
		key:       opt.prestateKey(),
		prepared:  prepared,
		off:       make([]int, len(prepared)+1),
		holderOff: make([]int, maxFileID(prepared)+2),
	}
	nSharers := 0
	for pid, c := range prepared {
		pre.off[pid+1] = pre.off[pid] + len(c)
		if len(c) > 0 {
			nSharers++
		}
		for _, f := range c {
			pre.holderOff[f+1]++
		}
	}
	for f := 1; f < len(pre.holderOff); f++ {
		pre.holderOff[f] += pre.holderOff[f-1]
	}
	pre.requests = make([]trace.FileID, pre.replicas())
	pre.sharers = make([]trace.PeerID, 0, nSharers)
	for pid, c := range prepared {
		if len(c) == 0 {
			continue
		}
		pre.sharers = append(pre.sharers, trace.PeerID(pid))
		list := pre.requests[pre.off[pid]:pre.off[pid+1]]
		copy(list, c)
		rng.Shuffle(len(list), func(i, j int) { list[i], list[j] = list[j], list[i] })
	}
	state, err := pcg.MarshalBinary()
	if err != nil {
		panic(fmt.Sprintf("core: snapshotting PCG state: %v", err)) // cannot fail
	}
	pre.rngState = state
	sweepPrestateNS.Add(time.Since(start).Nanoseconds())
	sweepPrestates.Add(1)
	return pre
}

// scheduleRNG restores a fresh schedule generator positioned right after
// the prestate's setup draws.
func (p *SimPrestate) scheduleRNG() *rand.Rand {
	pcg := &rand.PCG{}
	if err := pcg.UnmarshalBinary(p.rngState); err != nil {
		panic(fmt.Sprintf("core: restoring PCG state: %v", err)) // cannot fail
	}
	return rand.New(pcg)
}

// RunSimPrestate runs one simulation point on a shared prestate. The
// options must agree with the prestate on every PrestateKey field (it
// panics otherwise — sharing across different setups would silently
// change results); ListSize, Kind, TwoHop, TrackLoad, FixedLists and
// Pool may vary freely between points of one prestate. The result is
// bit-identical to RunSim(caches, opt) on the caches the prestate was
// built from, for any worker count of opt.Pool.
func RunSimPrestate(pre *SimPrestate, opt SimOptions) SimResult {
	if opt.ListSize <= 0 {
		opt.ListSize = 20
	}
	if opt.prestateKey() != pre.key {
		panic(fmt.Sprintf("core: SimOptions %+v incompatible with prestate key %+v",
			opt.prestateKey(), pre.key))
	}
	s := newPointState(pre, opt)
	if opt.Pool.Workers() > 1 {
		s.runSharded(opt.Pool)
	} else {
		s.runSerial()
	}
	return s.res
}

// Sweep phase accounting: process-wide atomic counters fed by every
// RunSim/RunSweep in flight, cheap enough to stay always on (a handful
// of clock reads per chunk). Commands snapshot before and after a run
// and report the delta (-v), so the next long pole — prestate builds,
// speculative evaluation, or serial commits — is measurable without a
// profiler.
var (
	sweepPrestateNS atomic.Int64
	sweepEvalNS     atomic.Int64
	sweepCommitNS   atomic.Int64
	sweepPrestates  atomic.Int64
	sweepPoints     atomic.Int64
	sweepEvents     atomic.Int64
	sweepReevals    atomic.Int64
)

// SweepTimings is a snapshot of the per-phase simulation accounting:
// time building prestates, evaluating events (serial loops and
// speculative chunk evaluation; summed across workers, so it can exceed
// wall clock), and committing chunks in order (including the serial
// re-evaluation of invalidated speculations, counted by Reevaluated).
type SweepTimings struct {
	Prestate    time.Duration
	Eval        time.Duration
	Commit      time.Duration
	Prestates   int64
	Points      int64
	Events      int64
	Reevaluated int64
}

// SweepTimingsSnapshot returns the accumulated totals; subtract two
// snapshots (Sub) to attribute phases to one run.
func SweepTimingsSnapshot() SweepTimings {
	return SweepTimings{
		Prestate:    time.Duration(sweepPrestateNS.Load()),
		Eval:        time.Duration(sweepEvalNS.Load()),
		Commit:      time.Duration(sweepCommitNS.Load()),
		Prestates:   sweepPrestates.Load(),
		Points:      sweepPoints.Load(),
		Events:      sweepEvents.Load(),
		Reevaluated: sweepReevals.Load(),
	}
}

// Sub returns the difference t - prev, phase by phase.
func (t SweepTimings) Sub(prev SweepTimings) SweepTimings {
	return SweepTimings{
		Prestate:    t.Prestate - prev.Prestate,
		Eval:        t.Eval - prev.Eval,
		Commit:      t.Commit - prev.Commit,
		Prestates:   t.Prestates - prev.Prestates,
		Points:      t.Points - prev.Points,
		Events:      t.Events - prev.Events,
		Reevaluated: t.Reevaluated - prev.Reevaluated,
	}
}

// String renders the snapshot for -v phase reports.
func (t SweepTimings) String() string {
	reevalPct := 0.0
	if t.Events > 0 {
		reevalPct = 100 * float64(t.Reevaluated) / float64(t.Events)
	}
	return fmt.Sprintf("%d points / %d prestates: prestate %.2fs, eval %.2fs, commit %.2fs (%d events, %.2f%% re-evaluated)",
		t.Points, t.Prestates, t.Prestate.Seconds(), t.Eval.Seconds(),
		t.Commit.Seconds(), t.Events, reevalPct)
}
