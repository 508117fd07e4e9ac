package core

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"slices"
	"time"

	"edonkey/internal/randomize"
	"edonkey/internal/runner"
	"edonkey/internal/trace"
)

// SimOptions configures one trace-driven search simulation (paper §5.1).
type SimOptions struct {
	// ListSize is the semantic neighbour list capacity.
	ListSize int
	// Kind selects the list management strategy.
	Kind StrategyKind
	// TwoHop also queries the neighbours' current neighbours on a miss
	// (paper §5.3.4).
	TwoHop bool
	// Seed drives request ordering, fallback-uploader choice and the
	// Random strategy.
	Seed uint64

	// Pool, when it has more than one worker, shards the event loop of
	// this single simulation point across the pool (speculative
	// evaluation against chunk-start state, serial in-order commit).
	// The result is bit-identical for any worker count, including nil.
	Pool *runner.Pool

	// DropTopUploaders removes the given fraction of the most generous
	// sharers (by cache size) before the simulation, with their request
	// lists (paper Fig. 19). 0 keeps everyone.
	DropTopUploaders float64
	// DropTopFiles removes the given fraction of the most popular
	// distinct files from every cache (paper Fig. 20). 0 keeps all.
	DropTopFiles float64
	// RandomizeSwaps > 0 randomizes the caches with that many swap
	// iterations before the simulation; RandomizeSwaps < 0 applies the
	// paper's default (1/2)·N·ln N budget (paper Fig. 21). 0 leaves the
	// caches untouched.
	RandomizeSwaps int

	// TrackLoad records per-peer received query messages (Fig. 22).
	TrackLoad bool

	// FixedLists, when non-nil, overrides Kind with immutable per-peer
	// neighbour lists (indexed by PeerID) — used to evaluate externally
	// built semantic overlays (internal/overlay) under the same
	// trace-driven workload. Uploads are not recorded.
	FixedLists [][]trace.PeerID
}

// SimResult reports one simulation run.
type SimResult struct {
	Strategy string
	ListSize int
	TwoHop   bool

	// Peers is the total population size, Sharers the number with a
	// non-empty cache after ablations.
	Peers   int
	Sharers int

	// Requests counts simulated queries (events where the file already
	// had at least one source); Contributions counts first-upload events.
	Requests      int
	Contributions int

	// Hits counts requests answered by the semantic list; OneHopHits
	// and TwoHopHits split them by hop distance (OneHop == Hits when
	// TwoHop is disabled).
	Hits       int
	OneHopHits int
	TwoHopHits int

	// Messages is the total number of query messages sent; LoadPerPeer
	// (TrackLoad only) the number received per peer, indexed by PeerID.
	Messages    int64
	LoadPerPeer []int64
}

// HitRate returns Hits / Requests, or 0 for an empty run.
func (r SimResult) HitRate() float64 {
	if r.Requests == 0 {
		return 0
	}
	return float64(r.Hits) / float64(r.Requests)
}

// String summarizes the run.
func (r SimResult) String() string {
	return fmt.Sprintf("%s(%d)%s: hit %.1f%% (%d/%d requests, %d contributions)",
		r.Strategy, r.ListSize, map[bool]string{true: "+2hop", false: ""}[r.TwoHop],
		100*r.HitRate(), r.Hits, r.Requests, r.Contributions)
}

// PrepareCaches applies the ablations of SimOptions to the caches:
// uploader removal, popular-file removal, randomization. Exposed so
// analyses can reuse exactly the simulator's trace surgery.
//
// The input is never mutated. When no ablation is requested the input
// slice is returned as-is and shared read-only with the caller — this is
// what lets concurrent sweeps over one trace skip the per-point deep
// copy; callers must not write through the result in that case (RunSim
// never does).
func PrepareCaches(caches [][]trace.FileID, opt SimOptions, rng *rand.Rand) [][]trace.FileID {
	if opt.DropTopUploaders <= 0 && opt.DropTopFiles <= 0 {
		if opt.RandomizeSwaps == 0 {
			return caches
		}
		swaps := opt.RandomizeSwaps
		if swaps < 0 {
			swaps = 0 // randomize.Shuffle interprets <=0 as the default budget
		}
		return randomize.Shuffle(caches, swaps, rng)
	}

	// One flat copy; each row keeps its own capacity so filtering in
	// place never spills into the next.
	total := 0
	for _, c := range caches {
		total += len(c)
	}
	flat := make([]trace.FileID, 0, total)
	out := make([][]trace.FileID, len(caches))
	for i, c := range caches {
		if len(c) > 0 {
			lo := len(flat)
			flat = append(flat, c...)
			out[i] = flat[lo:len(flat):len(flat)]
		}
	}

	if opt.DropTopUploaders > 0 {
		type pc struct {
			pid trace.PeerID
			n   int
		}
		var sharers []pc
		for pid, c := range out {
			if len(c) > 0 {
				sharers = append(sharers, pc{trace.PeerID(pid), len(c)})
			}
		}
		slices.SortFunc(sharers, func(a, b pc) int {
			if a.n != b.n {
				return cmp.Compare(b.n, a.n)
			}
			return cmp.Compare(a.pid, b.pid)
		})
		k := int(opt.DropTopUploaders * float64(len(sharers)))
		for i := 0; i < k && i < len(sharers); i++ {
			out[sharers[i].pid] = nil
		}
	}

	if opt.DropTopFiles > 0 {
		pop := make([]int32, maxFileID(out)+1)
		for _, c := range out {
			for _, f := range c {
				pop[f]++
			}
		}
		type fc struct {
			fid trace.FileID
			n   int32
		}
		var files []fc
		for f, n := range pop {
			if n > 0 {
				files = append(files, fc{trace.FileID(f), n})
			}
		}
		slices.SortFunc(files, func(a, b fc) int {
			if a.n != b.n {
				return cmp.Compare(b.n, a.n)
			}
			return cmp.Compare(a.fid, b.fid)
		})
		k := int(opt.DropTopFiles * float64(len(files)))
		drop := make([]bool, len(pop))
		for i := 0; i < k && i < len(files); i++ {
			drop[files[i].fid] = true
		}
		for pid, c := range out {
			kept := c[:0]
			for _, f := range c {
				if !drop[f] {
					kept = append(kept, f)
				}
			}
			if len(kept) == 0 {
				out[pid] = nil
			} else {
				out[pid] = kept
			}
		}
	}

	if opt.RandomizeSwaps != 0 {
		swaps := opt.RandomizeSwaps
		if swaps < 0 {
			swaps = 0 // randomize.Shuffle interprets <=0 as the default budget
		}
		out = randomize.Shuffle(out, swaps, rng)
	}
	return out
}

// maxFileID returns the largest FileID appearing in the caches (rows are
// sorted, so only each row's last element is examined), or -1 when all
// rows are empty.
func maxFileID(caches [][]trace.FileID) int {
	maxF := -1
	for _, c := range caches {
		if len(c) > 0 {
			if f := int(c[len(c)-1]); f > maxF {
				maxF = f
			}
		}
	}
	return maxF
}

// RunSim executes the trace-driven search simulation of paper §5.1 on the
// given static caches (index = PeerID; use trace.AggregateCaches on the
// filtered trace). Each peer's cache is its potential request set;
// requests are drawn peer-by-peer in random order. The first requester of
// a file that no one shares yet becomes its original contributor;
// otherwise the peer queries its semantic neighbours (and on a miss their
// neighbours, if TwoHop), falls back to the global search on failure, and
// in every case records the uploader in its semantic list and starts
// sharing the file.
//
// Randomness is split into two decorrelated streams: the schedule stream
// (setup shuffles and which active peer requests next) is drawn from one
// shared generator, while the fallback-uploader choice of event e is a
// pure function of (Seed, e). The split is what makes the event loop
// shardable — the whole schedule can be drawn ahead of the outcome of any
// event — and it makes one RunSim bit-identical for every worker count of
// opt.Pool, including the serial nil pool.
//
// The setup phase (trace surgery, request shuffles) lives in
// NewSimPrestate so sweeps can build it once per ablation key and share
// it across points; RunSim is the single-point convenience that builds a
// private prestate.
func RunSim(caches [][]trace.FileID, opt SimOptions) SimResult {
	return RunSimPrestate(NewSimPrestate(caches, opt), opt)
}

// newPointState builds the live, point-private state of one simulation
// run on top of a shared prestate: the restored schedule generator, the
// strategies (Random draws its reservoir from the restored stream,
// exactly where the setup left off), share bits, holder lists, request
// counts and the active set. Every array is sized here, once, from the
// prestate's offsets, so the event loop itself never allocates.
func newPointState(pre *SimPrestate, opt SimOptions) *simState {
	s := &simState{
		opt: opt,
		pre: pre,
		rng: pre.scheduleRNG(),
		// Decorrelate the per-event fallback stream from every other use
		// of Seed (schedule stream, world sub-seeds).
		fallback: runner.SubSeed(opt.Seed, 0x66616c6c), // "fall"
		res: SimResult{
			Strategy: opt.Kind.String(),
			ListSize: opt.ListSize,
			TwoHop:   opt.TwoHop,
			Peers:    len(pre.prepared),
			Sharers:  len(pre.sharers),
		},
		left:    make([]int32, len(pre.prepared)),
		shared:  make([]uint64, (pre.replicas()+63)/64),
		holders: make([]trace.PeerID, pre.replicas()),
		holderN: make([]int32, pre.nFiles()),
		// Active peers with remaining requests, for uniform random choice.
		active: slices.Clone(pre.sharers),
	}
	for _, pid := range pre.sharers {
		s.left[pid] = int32(len(pre.prepared[pid]))
	}
	s.initStrategies()
	if opt.FixedLists != nil {
		s.res.Strategy = "Fixed"
	}
	if opt.TrackLoad {
		s.res.LoadPerPeer = make([]int64, len(pre.prepared))
	}
	sweepPoints.Add(1)
	return s
}

// initStrategies gives every sharer its neighbour list. The lists are
// values in one per-point slice, and their storage is carved from one
// buffer sized by an exact bound, so recording an upload never
// allocates: a list gains at most one entry per request of its owner.
func (s *simState) initStrategies() {
	pre, opt := s.pre, s.opt
	s.strategies = make([]Strategy, len(pre.prepared))
	switch {
	case opt.FixedLists != nil:
		lists := make([]fixedList, len(pre.sharers))
		for k, pid := range pre.sharers {
			if int(pid) < len(opt.FixedLists) {
				list := opt.FixedLists[pid]
				lists[k].list = list[:min(len(list), opt.ListSize)]
			}
			s.strategies[pid] = &lists[k]
		}
	case opt.Kind == LRU:
		// min(ListSize, cache size) per peer, so the buffer is never
		// larger than the holder buffer.
		n := 0
		for _, pid := range pre.sharers {
			n += min(opt.ListSize, len(pre.prepared[pid]))
		}
		lists, buf := make([]lruList, len(pre.sharers)), make([]trace.PeerID, n)
		for k, pid := range pre.sharers {
			c := min(opt.ListSize, len(pre.prepared[pid]))
			lists[k] = lruList{list: buf[:0:c], cap: opt.ListSize}
			buf = buf[c:]
			s.strategies[pid] = &lists[k]
		}
	case opt.Kind == History:
		// A board holds at most one entry per request of its owner, so
		// the boards share the replica offsets.
		n := 0
		for _, pid := range pre.sharers {
			n += historyIndexSize(len(pre.prepared[pid]))
		}
		lists := make([]historyList, len(pre.sharers))
		ids := make([]trace.PeerID, pre.replicas())
		counts := make([]int32, pre.replicas())
		index := make([]int32, n)
		for k, pid := range pre.sharers {
			lo, hi := pre.off[pid], pre.off[pid+1]
			c := historyIndexSize(hi - lo)
			lists[k] = historyList{
				ids:    ids[lo:lo:hi],
				counts: counts[lo:lo:hi],
				index:  index[:c:c],
				cap:    opt.ListSize,
			}
			index = index[c:]
			s.strategies[pid] = &lists[k]
		}
	case opt.Kind == Random:
		// Every sharer draws from the sharer pool, itself excluded, so
		// min(ListSize, sharers-1) is its list's length.
		c := max(0, min(opt.ListSize, len(pre.sharers)-1))
		lists, buf := make([]fixedList, len(pre.sharers)), make([]trace.PeerID, c*len(pre.sharers))
		for k, pid := range pre.sharers {
			lists[k].list = drawRandom(buf[k*c:k*c:(k+1)*c], pid, pre.sharers, s.rng)
			s.strategies[pid] = &lists[k]
		}
	default:
		panic(fmt.Sprintf("core: unknown strategy kind %d", opt.Kind))
	}
}

// simState is the live state of one RunSim event loop, shared by the
// serial path and the sharded path (which interleaves parallel read-only
// speculation with the same serial commits). Counts are int32: none can
// exceed the number of peers or one peer's cache size.
type simState struct {
	opt        SimOptions
	pre        *SimPrestate
	rng        *rand.Rand // schedule stream: setup shuffles + active-peer picks
	fallback   uint64     // base seed of the per-event fallback-uploader stream
	left       []int32    // requests peer p has still to draw: pre.requests[off[p]:off[p]+left[p]]
	strategies []Strategy
	shared     []uint64       // share bits, one per replica (bit off[p]+i: p shares prepared[p][i])
	holders    []trace.PeerID // holder lists in the prestate's file ranges, in append order
	holderN    []int32        // holder list lengths per file
	active     []trace.PeerID
	res        SimResult
	chunk      *chunkState // sharded-path speculation machinery (initChunks)
}

// simEvent is one scheduled request: peer p pops file f.
type simEvent struct {
	p trace.PeerID
	f trace.FileID
}

// eventSpec is the outcome of evaluating one event against a fixed state
// snapshot: either the commit-time state (serial path, exact) or the
// chunk-start state (sharded path, speculative until validated).
type eventSpec struct {
	contribution bool
	hit          bool
	twoHop       bool // the two-hop ring was scanned (one-hop missed)
	uploader     trace.PeerID
	messages     int64
	targets      []trace.PeerID // peers messaged, in probe order (view into an eval arena)
}

// twoHopScratch is per-evaluator epoch-marked deduplication state for the
// two-hop scan; it never influences results, so workers can reuse any
// instance.
type twoHopScratch struct {
	queried []uint32
	epoch   uint32
}

// sharesFile reports whether p currently shares f. A peer only ever
// shares files from its own request set, so membership reduces to a
// binary search of the static cache plus one bit probe.
func (s *simState) sharesFile(p trace.PeerID, f trace.FileID) bool {
	pos, ok := slices.BinarySearch(s.pre.prepared[p], f)
	if !ok {
		return false
	}
	bit := s.pre.off[p] + pos
	return s.shared[bit/64]&(1<<(bit%64)) != 0
}

func (s *simState) startSharing(p trace.PeerID, f trace.FileID) {
	pos, _ := slices.BinarySearch(s.pre.prepared[p], f)
	bit := s.pre.off[p] + pos
	s.shared[bit/64] |= 1 << (bit % 64)
}

// holdersOf returns f's holders in the order they started sharing it.
func (s *simState) holdersOf(f trace.FileID) []trace.PeerID {
	lo := s.pre.holderOff[f]
	return s.holders[lo : lo+int(s.holderN[f])]
}

// addHolder appends p to f's holder list. Each replica is committed
// once, so the list never outgrows its prestate range.
func (s *simState) addHolder(f trace.FileID, p trace.PeerID) {
	s.holders[s.pre.holderOff[f]+int(s.holderN[f])] = p
	s.holderN[f]++
}

// nextEvent draws the next scheduled request from the schedule stream:
// a uniformly random active peer pops the tail of its shuffled request
// list. The schedule depends only on the stream and the request-list
// lengths — never on event outcomes — which is what lets the sharded
// path draw a whole chunk of events before evaluating any of them.
func (s *simState) nextEvent() (simEvent, bool) {
	if len(s.active) == 0 {
		return simEvent{}, false
	}
	ai := s.rng.IntN(len(s.active))
	p := s.active[ai]
	s.left[p]--
	f := s.pre.requests[s.pre.off[p]+int(s.left[p])]
	if s.left[p] == 0 {
		s.active[ai] = s.active[len(s.active)-1]
		s.active = s.active[:len(s.active)-1]
	}
	return simEvent{p: p, f: f}, true
}

// fallbackIdx picks the fallback uploader index for global event g among
// n sources, from the per-event derived stream.
func (s *simState) fallbackIdx(g uint64, n int) int {
	return int(runner.SubSeed(s.fallback, g) % uint64(n))
}

// evaluate computes the outcome of ev against the current (or, on the
// sharded path, chunk-start) state. It is read-only: strategies, shared
// bitsets and holder lists are probed but never written, so any number
// of evaluators can run concurrently between commits.
//
// The peers probed, in probe order, are appended to arena and exposed as
// spec.targets: they feed LoadPerPeer under TrackLoad and — on the
// sharded path — the commit-time validation, which must know exactly
// which share bits the speculation read. Target slices are views into
// the arena's backing at append time; growing the arena later relocates
// future appends without disturbing earlier views, so one arena serves
// every spec of an evaluation job. The arena's owner truncates it only
// once no spec views it: the serial loop after each apply, the commit's
// arena after each re-evaluated event, and an evaluation job's arena
// when the same job index starts the next chunk, by which time
// commitChunk has dropped every view into it.
func (s *simState) evaluate(ev simEvent, sc *twoHopScratch, arena *[]trace.PeerID) eventSpec {
	if s.holderN[ev.f] == 0 {
		return eventSpec{contribution: true}
	}
	var spec eventSpec
	base := len(*arena)
	neigh := s.strategies[ev.p].Neighbours()
	for _, n := range neigh {
		spec.messages++
		*arena = append(*arena, n)
		if s.sharesFile(n, ev.f) {
			spec.hit = true
			spec.uploader = n
			spec.targets = (*arena)[base:]
			return spec
		}
	}
	if s.opt.TwoHop {
		spec.twoHop = true
		sc.epoch++
		sc.queried[ev.p] = sc.epoch
		for _, n := range neigh {
			sc.queried[n] = sc.epoch
		}
		for _, n := range neigh {
			if s.strategies[n] == nil {
				continue
			}
			for _, nn := range s.strategies[n].Neighbours() {
				if sc.queried[nn] == sc.epoch {
					continue
				}
				sc.queried[nn] = sc.epoch
				spec.messages++
				*arena = append(*arena, nn)
				if s.sharesFile(nn, ev.f) {
					spec.hit = true
					spec.uploader = nn
					spec.targets = (*arena)[base:]
					return spec
				}
			}
		}
	}
	spec.targets = (*arena)[base:]
	return spec
}

// apply commits an evaluated event: result counters, the upload record,
// the new share and the holder-list append. g is the event's global
// schedule index (it seeds the fallback-uploader draw).
func (s *simState) apply(ev simEvent, spec *eventSpec, g uint64) {
	if spec.contribution {
		// ev.p is the original contributor of ev.f.
		s.res.Contributions++
		s.startSharing(ev.p, ev.f)
		s.addHolder(ev.f, ev.p)
		return
	}
	s.res.Requests++
	s.res.Messages += spec.messages
	if s.opt.TrackLoad {
		for _, n := range spec.targets {
			s.res.LoadPerPeer[n]++
		}
	}
	uploader := spec.uploader
	if spec.hit {
		s.res.Hits++
		if spec.twoHop {
			s.res.TwoHopHits++
		} else {
			s.res.OneHopHits++
		}
	} else {
		// Fallback search (server or flooding) finds some source.
		srcs := s.holdersOf(ev.f)
		uploader = srcs[s.fallbackIdx(g, len(srcs))]
	}
	s.strategies[ev.p].RecordUpload(uploader)
	s.startSharing(ev.p, ev.f)
	s.addHolder(ev.f, ev.p)
}

// newScratch allocates two-hop dedup state (a no-op shell otherwise).
func (s *simState) newScratch() *twoHopScratch {
	sc := &twoHopScratch{}
	if s.opt.TwoHop {
		sc.queried = make([]uint32, len(s.pre.prepared))
	}
	return sc
}

// runSerial is the direct event loop: evaluate and commit one event at a
// time against live state.
func (s *simState) runSerial() {
	start := time.Now()
	sc := s.newScratch()
	arena := make([]trace.PeerID, 0, s.opt.ListSize) // one-hop bound; two-hop grows it
	events := int64(0)
	for g := uint64(0); ; g++ {
		ev, ok := s.nextEvent()
		if !ok {
			break
		}
		arena = arena[:0] // targets are consumed by apply before the next event
		spec := s.evaluate(ev, sc, &arena)
		s.apply(ev, &spec, g)
		events++
	}
	sweepEvalNS.Add(time.Since(start).Nanoseconds())
	sweepEvents.Add(events)
}

// Sharded event-loop tuning. Chunk sizing is pure performance tuning:
// valid speculations equal the serial outcome and invalid ones are
// re-evaluated serially, so any chunking (and any worker count) yields
// the serial result bit for bit.
const (
	// simMaxChunkEvents caps how many scheduled events are drawn ahead
	// and speculatively evaluated per round.
	simMaxChunkEvents = 4096
	// simMinChunkEvents keeps chunks worth a pool dispatch.
	simMinChunkEvents = 64
	// chunkMaxScale caps the adaptive chunk-size multiplier.
	chunkMaxScale = 8
	// chunkMultiFile marks a peer that committed events on two or more
	// distinct files within the current chunk (real FileIDs are dense
	// and can never reach the sentinel).
	chunkMultiFile = ^trace.FileID(0)
)

// chunkTarget sizes the next speculation chunk from the current active
// set: a chunk much larger than the number of active peers would give
// almost every event an earlier same-requester event and invalidate the
// whole round. One-eighth of the active set keeps the expected
// same-peer collision rate low while leaving enough events to spread
// over the pool; scale stretches that when the observed invalidation
// rate says speculation is cheap (see commitChunk). Both inputs are
// schedule state — identical for every worker count — so adaptive
// sizing preserves determinism.
func chunkTarget(active, scale int) int {
	t := active / 8 * scale
	if t > simMaxChunkEvents {
		t = simMaxChunkEvents
	}
	if t < simMinChunkEvents {
		t = simMinChunkEvents
	}
	return t
}

// chunkState is the speculation machinery of one sharded event loop,
// split out so a sweep scheduler can drive the chunk phases (drawChunk →
// parallel evalRange → commitChunk) of many points interleaved on one
// pool instead of looping over them here.
type chunkState struct {
	events []simEvent
	specs  []eventSpec

	// Last-touch global indices (+1, 0 = never). peerTouched marks any
	// committed event of the peer (its share bit for peerLastFile
	// flipped); peerListTouched marks only commits that mutated the
	// peer's neighbour list (non-contribution events, via RecordUpload);
	// fileTouched marks any committed event on the file.
	peerTouched     []uint64
	peerListTouched []uint64
	peerLastFile    []trace.FileID // file of the peer's commits this chunk, or chunkMultiFile
	fileTouched     []uint64

	commitSc    *twoHopScratch
	commitArena []trace.PeerID
	// arenas[j] holds the probe targets of evaluation job j (see
	// evalJobs) and lives as long as the point. It starts at arenaCap,
	// the one-hop bound on a job's targets: the widest range this point's
	// chunks can split into times ListSize, as a one-hop event probes at
	// most ListSize peers. Only two-hop scans grow it further.
	arenas   [][]trace.PeerID
	arenaCap int

	start uint64 // global schedule index of events[0]
	scale int    // adaptive chunk-size multiplier, 1..chunkMaxScale
}

// evalJobs splits a chunk of n events into evaluation ranges of sub
// events (the last may be shorter): about four per worker, so
// work-stealing evens out uneven scan costs, but never under eight
// events. jobs never exceeds 4·workers.
func evalJobs(n, workers int) (sub, jobs int) {
	sub = max((n+4*workers-1)/(4*workers), 8)
	return sub, (n + sub - 1) / sub
}

// initChunks allocates the chunk machinery for evaluation on the given
// number of workers; call once before the first drawChunk.
func (s *simState) initChunks(workers int) {
	// The active set never outgrows the sharers, so no chunk outgrows
	// maxChunk.
	maxChunk := chunkTarget(len(s.pre.sharers), chunkMaxScale)
	maxSub, _ := evalJobs(maxChunk, workers)
	s.chunk = &chunkState{
		events:          make([]simEvent, 0, maxChunk),
		specs:           make([]eventSpec, maxChunk),
		peerTouched:     make([]uint64, len(s.pre.prepared)),
		peerListTouched: make([]uint64, len(s.pre.prepared)),
		peerLastFile:    make([]trace.FileID, len(s.pre.prepared)),
		fileTouched:     make([]uint64, s.pre.nFiles()),
		commitSc:        s.newScratch(),
		commitArena:     make([]trace.PeerID, 0, s.opt.ListSize),
		arenas:          make([][]trace.PeerID, 4*workers),
		arenaCap:        maxSub * s.opt.ListSize,
		scale:           1,
	}
}

// drawChunk draws the next chunk of schedule into the chunk buffer and
// returns its length (0 when the simulation is finished). Drawing only
// advances the schedule stream and the request lists — never outcome
// state — so it is safe before any of the chunk is evaluated.
func (s *simState) drawChunk() int {
	c := s.chunk
	c.events = c.events[:0]
	for target := chunkTarget(len(s.active), c.scale); len(c.events) < target; {
		ev, ok := s.nextEvent()
		if !ok {
			break
		}
		c.events = append(c.events, ev)
	}
	return len(c.events)
}

// evalRange speculatively evaluates range j of the current chunk,
// events [lo,hi), against chunk-start state. Read-only on shared state
// and on every other index of the spec buffer, so disjoint ranges run
// concurrently. The targets go to job j's own arena, which the call
// truncates first: the previous chunk's specs that viewed it were
// committed and dropped before this chunk was drawn.
func (s *simState) evalRange(j, lo, hi int, sc *twoHopScratch) {
	start := time.Now()
	c := s.chunk
	arena := c.arenas[j][:0]
	if cap(arena) == 0 {
		arena = make([]trace.PeerID, 0, c.arenaCap)
	}
	for i := lo; i < hi; i++ {
		c.specs[i] = s.evaluate(c.events[i], sc, &arena)
	}
	c.arenas[j] = arena
	sweepEvalNS.Add(time.Since(start).Nanoseconds())
}

// specValid reports whether the speculative outcome of ev still equals
// what a live evaluation would produce, given the commits applied so far
// this chunk. The checks mirror exactly what evaluate read:
//
//   - a contribution spec read only "holders[f] is empty", which an
//     earlier commit changed iff it touched the file (holders only grow,
//     so a non-contribution spec can never become one);
//   - a request spec walked the requester's neighbour list (invalid if
//     the list mutated: peerListTouched — a requester's own earlier
//     contribution does not move its list) and, for two-hop scans, the
//     lists of its current one-hop neighbours;
//   - the walk probed the share bit of every peer in spec.targets for
//     ev.f. A probed bit flipped iff that peer committed an event on
//     ev.f earlier in this chunk, i.e. peerTouched fired and its
//     per-chunk file marker matches (or the peer touched several files:
//     chunkMultiFile). Peers beyond a speculative hit were not probed,
//     and their bits — set-only — cannot un-hit it, so targets is the
//     complete read set.
func (s *simState) specValid(ev simEvent, spec *eventSpec) bool {
	c := s.chunk
	if spec.contribution {
		return c.fileTouched[ev.f] <= c.start
	}
	if c.peerListTouched[ev.p] > c.start {
		return false
	}
	if c.fileTouched[ev.f] > c.start {
		for _, t := range spec.targets {
			if c.peerTouched[t] > c.start &&
				(c.peerLastFile[t] == ev.f || c.peerLastFile[t] == chunkMultiFile) {
				return false
			}
		}
	}
	if spec.twoHop {
		for _, n := range s.strategies[ev.p].Neighbours() {
			if c.peerListTouched[n] > c.start {
				return false
			}
		}
	}
	return true
}

// commitChunk applies the current chunk in schedule order, re-evaluating
// any event whose speculation an earlier commit invalidated (exactly the
// serial semantics, so every worker count and interleaving produces the
// serial result bit for bit). It then adapts the chunk scale: the
// re-evaluation count is a pure function of the schedule, so the scale —
// and with it every following chunk boundary — stays deterministic.
func (s *simState) commitChunk() {
	start := time.Now()
	c := s.chunk
	reevals := 0
	for i := range c.events {
		ev := c.events[i]
		g := c.start + uint64(i)
		spec := &c.specs[i]
		if !s.specValid(ev, spec) {
			c.commitArena = c.commitArena[:0]
			*spec = s.evaluate(ev, c.commitSc, &c.commitArena)
			reevals++
		}
		contribution := spec.contribution
		s.apply(ev, spec, g)
		*spec = eventSpec{} // drop the target view before its arena is reused
		if !contribution {
			c.peerListTouched[ev.p] = g + 1
		}
		if c.peerTouched[ev.p] <= c.start {
			c.peerLastFile[ev.p] = ev.f
		} else if c.peerLastFile[ev.p] != ev.f {
			c.peerLastFile[ev.p] = chunkMultiFile
		}
		c.peerTouched[ev.p] = g + 1
		c.fileTouched[ev.f] = g + 1
	}
	c.start += uint64(len(c.events))

	// Cheap speculation → stretch the next chunk; heavy invalidation →
	// shrink back towards the collision-safe baseline.
	if n := len(c.events); reevals*50 < n && c.scale < chunkMaxScale {
		c.scale *= 2
	} else if reevals*8 > n && c.scale > 1 {
		c.scale /= 2
	}
	sweepCommitNS.Add(time.Since(start).Nanoseconds())
	sweepEvents.Add(int64(len(c.events)))
	sweepReevals.Add(int64(reevals))
}

// runSharded executes the event loop in chunks: draw a chunk of
// schedule, evaluate it in parallel against the chunk-start state, then
// commit serially in schedule order (commitChunk re-evaluates anything
// an earlier commit invalidated). The evaluation is split by evalJobs.
func (s *simState) runSharded(pool *runner.Pool) {
	s.initChunks(pool.Workers())
	// Evaluator scratch checkout: at most Workers() jobs run at once.
	scratches := make(chan *twoHopScratch, pool.Workers())
	for i := 0; i < pool.Workers(); i++ {
		scratches <- s.newScratch()
	}
	var n, sub, jobs int
	eval := func(j int) {
		sc := <-scratches
		s.evalRange(j, j*sub, min((j+1)*sub, n), sc)
		scratches <- sc
	}
	for {
		if n = s.drawChunk(); n == 0 {
			return
		}
		sub, jobs = evalJobs(n, pool.Workers())
		pool.Map(jobs, eval)
		s.commitChunk()
	}
}
