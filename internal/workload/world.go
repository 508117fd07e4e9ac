package workload

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sync"

	"edonkey/internal/geo"
	"edonkey/internal/runner"
	"edonkey/internal/stats"
	"edonkey/internal/trace"
)

// The world is stored column-wise (structure of arrays), not as one Go
// struct per client or file: at the million-peer scale the ROADMAP targets,
// an array-of-structs world (map caches, per-client slices, boxed rngs)
// costs kilobytes of pointer-heavy heap per peer and cannot be walked
// without chasing it all. Here every per-client and per-file attribute
// lives in a packed parallel column, variable-length state (interests,
// identities, cache contents) lives in flat arrays addressed by spans,
// and clients are partitioned into fixed, deterministic cohorts that step
// as independent worker-pool jobs over cohort-owned cache arenas.
//
// The evolution itself is unchanged bit for bit: every client draws from
// the same private splitmix64-seeded generator stream as the legacy
// resident world (see legacy_world_test.go, the retained oracle), so
// worlds are identical for any worker count, any cohort size and either
// representation.

// Topic is a latent interest community: a themed pool of files with a home
// country. Peers subscribe to topics; files belong to exactly one.
type Topic struct {
	ID          int
	HomeCountry string
	// DominantKind is the most common content kind of the topic.
	DominantKind trace.FileKind
	// Weight is the topic's global popularity share (Zipf over topics).
	Weight float64
	// Files holds catalogue indices, in release order.
	Files []int32

	// cum is the topic's normalized cumulative file-attractiveness
	// distribution, rebuilt each day in place (nil while empty).
	cum []float64
}

// File is a materialized view of one catalogue row, assembled on demand
// from the packed columns. It is the convenience shape for tests and
// examples; hot paths read the columns through the File* accessors.
type File struct {
	Index      int
	Topic      int
	Kind       trace.FileKind
	Size       int64
	Name       string
	Hash       [16]byte
	ReleaseDay int // may be negative for the pre-trace catalogue
	// Bundle is the file's position-group within its topic: consecutive
	// releases of a topic form albums/series that peers fetch together.
	Bundle int
}

// catalogue is the file universe as parallel packed columns. Names are
// not stored at all: the two word draws are packed into one byte and the
// string is re-synthesized on demand, which keeps the per-file footprint
// flat while browse replies still carry full names.
type catalogue struct {
	hash    [][16]byte
	size    []int64
	topic   []int32
	pos     []int32 // release position within the topic
	release []int32
	kind    []uint8
	nameBit []uint8 // adjective<<4 | noun word indices
	baseW   []float64
}

func (c *catalogue) len() int { return len(c.hash) }

// identity is one crawlable identity segment of a client (clients that
// change IP or reinstall appear under several identities in the trace).
type identity struct {
	startDay int32 // inclusive
	endDay   int32 // inclusive
	ip       uint32
	hash     [16]byte
}

// Per-client flag bits in clientCols.flags.
const (
	flagFreeRider = 1 << iota
	flagFirewalled
	flagBrowseOK
	flagOnline
)

// clientCols holds all per-client state as parallel columns. Fixed-width
// attributes are one slot per client; variable-length attributes
// (interests with their cumulative weights, identity segments) are flat
// arrays sliced by offset columns; cache contents live in the cohort
// arenas addressed by (cacheOff, cacheLen, cacheCap) spans.
type clientCols struct {
	nick       []uint16 // three base-26 letters, packed
	countryIdx []uint8  // index into Registry.Countries()
	asn        []uint32
	flags      []uint8
	onlineProb []float64
	globalDraw []float64
	target     []int32
	rng        []rand.PCG // private per-client generator state, inline

	interests   []int32 // flat topic ids, ascending per client
	interestCum []float64
	interestOff []uint32 // len NumClients+1, indexes interests/interestCum

	idents   []identity
	identOff []uint32 // len NumClients+1

	cacheOff []uint32 // span start, relative to the client's cohort arena
	cacheLen []int32
	cacheCap []int32

	// pending queues bundle-mates of a recently fetched file: albums are
	// downloaded over consecutive additions. Almost always nil.
	pending [][]int32
}

// cohort is one deterministic shard of the client population. Each cohort
// owns the mutable arena behind its clients' cache spans, so cohorts can
// step concurrently without sharing any growable structure.
type cohort struct {
	lo, hi int // client index range [lo, hi)

	// files/days are the cache arena: per-client spans of ascending file
	// indices with the day each was added (negative for the staggered
	// initial fill), used for FIFO-ish eviction.
	files []int32
	days  []int32

	online int // presence partial, merged deterministically after each step
}

// defaultCohortSize balances scheduling granularity against per-job
// overhead; at 4096 clients a million-peer world steps as ~250 jobs.
const defaultCohortSize = 4096

// cacheSlack is the per-sharer arena headroom over the target cache size.
// A day adds Poisson(DailyAdds) files before eviction trims back to the
// target, so spans virtually never need to move.
const cacheSlack = 32

// World is the evolving synthetic population.
type World struct {
	Config   Config
	Registry *geo.Registry
	Topics   []Topic

	cat     catalogue
	cl      clientCols
	cohorts []cohort

	rng  *rand.Rand
	pool *runner.Pool
	day  int

	onlineCount int

	topicsByCountry map[string][]int
	// topicChoice weights topics by audience (zipf x kind factor) and
	// drives interest assignment; topicFileAlloc weights topics by
	// catalogue production (zipf only) and drives file placement. Movie
	// communities are larger but do not produce proportionally more
	// titles, which concentrates demand on few large files.
	topicChoice    *stats.WeightedChoice
	topicFileAlloc *stats.WeightedChoice
	kindMix        *stats.WeightedChoice
	topicKindMix   *stats.WeightedChoice
	// globalCum draws from the whole catalogue proportionally to
	// intrinsic attractiveness x lifecycle ("the charts"); rebuilt daily
	// in place.
	globalCum []float64
}

// New builds the world at day 0 with initial catalogues and filled caches.
// It returns an error if the config is invalid.
func New(cfg Config) (*World, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	w := &World{
		Config:          cfg,
		Registry:        geo.NewRegistry(),
		rng:             rand.New(rand.NewPCG(cfg.Seed, 0x65646f6e6b6579)), // "edonkey"
		pool:            runner.New(cfg.Workers),
		topicsByCountry: make(map[string][]int),
	}
	w.buildKindMix()
	w.buildTopics()
	w.seedCatalogue()
	w.buildClients()
	w.buildCohorts()
	w.refreshSamplers()
	w.fillInitialCaches()
	w.refreshPresence()
	return w, nil
}

// Day returns the current simulation day.
func (w *World) Day() int { return w.day }

// Pool exposes the world's worker pool so observers (collector, crawler)
// can fan their own per-cohort passes out over the same budget.
func (w *World) Pool() *runner.Pool { return w.pool }

// kind mix over distinct files, chosen so that ~40% of files are <1MB
// (documents/images), ~50% are 1-10MB (audio) and ~10% are larger
// (programs/archives/videos), matching Fig. 6.
func (w *World) buildKindMix() {
	weights := make([]float64, int(trace.KindVideo)+1)
	weights[trace.KindOther] = 0.04
	weights[trace.KindDocument] = 0.20
	weights[trace.KindImage] = 0.16
	weights[trace.KindAudio] = 0.50
	weights[trace.KindProgram] = 0.04
	weights[trace.KindArchive] = 0.04
	weights[trace.KindVideo] = 0.02
	w.kindMix = stats.NewWeightedChoice(weights)

	// Topic themes skew differently from the raw file mix: movie
	// communities are fewer than the music ones but not 25x fewer.
	tw := make([]float64, int(trace.KindVideo)+1)
	tw[trace.KindOther] = 0.05
	tw[trace.KindDocument] = 0.17
	tw[trace.KindImage] = 0.13
	tw[trace.KindAudio] = 0.52
	tw[trace.KindProgram] = 0.04
	tw[trace.KindArchive] = 0.05
	tw[trace.KindVideo] = 0.04
	w.topicKindMix = stats.NewWeightedChoice(tw)
}

// topicKindFactor scales a topic's audience: movie-sharing communities
// are larger than niche music communities, which both concentrates
// replication on large files (Fig. 6) and leaves rare audio files to
// small, tight communities (the strong clustering of rare audio files in
// Fig. 13).
func topicKindFactor(k trace.FileKind) float64 {
	switch k {
	case trace.KindVideo:
		return 3
	case trace.KindArchive, trace.KindProgram:
		return 1.5
	case trace.KindAudio:
		return 1
	default:
		return 0.5
	}
}

// kindBoost makes large content kinds attract more replication, which is
// what produces the paper's "popular files are big" observation (Fig. 6:
// 45% of files with popularity >= 5 exceed 600MB).
func kindBoost(k trace.FileKind) float64 {
	switch k {
	case trace.KindVideo:
		return 25
	case trace.KindArchive, trace.KindProgram:
		return 4
	case trace.KindAudio:
		return 1.2
	default:
		return 0.12
	}
}

// sampleSize draws a file size in bytes from the kind's regime.
func (w *World) sampleSize(k trace.FileKind) int64 {
	const (
		kb = 1 << 10
		mb = 1 << 20
	)
	var v float64
	switch k {
	case trace.KindDocument:
		v = stats.BoundedLogNormal(w.rng, math.Log(300*kb), 1.0, 4*kb, 1*mb)
	case trace.KindImage:
		v = stats.BoundedLogNormal(w.rng, math.Log(150*kb), 0.9, 10*kb, 1*mb)
	case trace.KindAudio:
		v = stats.BoundedLogNormal(w.rng, math.Log(3800*kb), 0.45, 1*mb, 10*mb)
	case trace.KindProgram:
		v = stats.BoundedLogNormal(w.rng, math.Log(40*mb), 1.1, 10*mb, 600*mb)
	case trace.KindArchive:
		v = stats.BoundedLogNormal(w.rng, math.Log(80*mb), 1.0, 10*mb, 600*mb)
	case trace.KindVideo:
		v = stats.BoundedLogNormal(w.rng, math.Log(700*mb), 0.12, 601*mb, 900*mb)
	default:
		v = stats.BoundedLogNormal(w.rng, math.Log(2*mb), 1.5, 16*kb, 100*mb)
	}
	return int64(v)
}

func (w *World) buildTopics() {
	w.Topics = make([]Topic, w.Config.Topics)
	weights := make([]float64, w.Config.Topics)
	alloc := make([]float64, w.Config.Topics)
	// Shuffled Zipf weights: the topic index carries no meaning.
	perm := w.rng.Perm(w.Config.Topics)
	for i := range w.Topics {
		rank := perm[i] + 1
		country := w.Registry.SampleCountry(w.rng)
		kind := trace.FileKind(w.topicKindMix.Draw(w.rng))
		base := math.Pow(float64(rank), -w.Config.TopicZipf)
		weight := base * topicKindFactor(kind)
		w.Topics[i] = Topic{
			ID:           i,
			HomeCountry:  country,
			DominantKind: kind,
			Weight:       weight,
		}
		weights[i] = weight
		alloc[i] = base
		w.topicsByCountry[country] = append(w.topicsByCountry[country], i)
	}
	w.topicChoice = stats.NewWeightedChoice(weights)
	w.topicFileAlloc = stats.NewWeightedChoice(alloc)
}

// addFile appends a file to the catalogue columns with the given release
// day. The rng draw order (kind, size, name words, decouple, hash) is the
// legacy order; only the storage changed.
func (w *World) addFile(topicID, releaseDay int) int {
	t := &w.Topics[topicID]
	kind := t.DominantKind
	if w.rng.Float64() > 0.8 {
		kind = trace.FileKind(w.kindMix.Draw(w.rng))
	}
	rank := len(t.Files) + 1
	idx := w.cat.len()
	size := w.sampleSize(kind)
	adj, noun := fileNameWords(w.rng)
	w.rng.Uint64() // decouple hash bytes from later draws
	var hash [16]byte
	for i := 0; i < 16; i += 8 {
		v := w.rng.Uint64()
		for j := 0; j < 8; j++ {
			hash[i+j] = byte(v >> (8 * j))
		}
	}
	w.cat.hash = append(w.cat.hash, hash)
	w.cat.size = append(w.cat.size, size)
	w.cat.topic = append(w.cat.topic, int32(topicID))
	w.cat.pos = append(w.cat.pos, int32(rank-1))
	w.cat.release = append(w.cat.release, int32(releaseDay))
	w.cat.kind = append(w.cat.kind, uint8(kind))
	w.cat.nameBit = append(w.cat.nameBit, adj<<4|noun)
	w.cat.baseW = append(w.cat.baseW, math.Pow(float64(rank), -w.Config.FileZipf)*kindBoost(kind))
	t.Files = append(t.Files, int32(idx))
	return idx
}

func (w *World) seedCatalogue() {
	// Spread the initial catalogue's release days over the 90 days
	// preceding the trace so day 0 starts with a realistic age mix.
	for i := 0; i < w.Config.InitialFiles; i++ {
		topicID := w.topicFileAlloc.Draw(w.rng)
		release := -w.rng.IntN(90)
		w.addFile(topicID, release)
	}
}

// interestCache memoizes the gamma-powered topic distributions built
// during interest assignment. The legacy path rebuilt them per client —
// O(topics) pow calls each, which at a million peers and tens of
// thousands of topics is billions of pow calls. The distributions depend
// only on (gamma, country), gamma only on the target cache size, so
// memoizing by (target, country) reproduces the exact draws at a tiny
// fraction of the cost. The cache is discarded when building finishes.
//
// Build chunks share one cache under a mutex. Every memoized value is a
// pure function of its key, so whichever chunk computes it first stores
// the same slice a serial build would — scheduling changes hit/miss
// patterns, never a draw.
type interestCache struct {
	mu     sync.Mutex
	global map[int32][]float64 // target -> cumulated global weights^gamma
	home   map[int64][]float64 // (countryIdx, target) -> cumulated home weights^gamma
}

// memo returns cached[key], computing it with build (outside the lock;
// concurrent builders produce identical values) on a miss.
func memo[K comparable](mu *sync.Mutex, cache map[K][]float64, key K, build func() []float64) []float64 {
	mu.Lock()
	v := cache[key]
	mu.Unlock()
	if v != nil {
		return v
	}
	v = build()
	mu.Lock()
	if prev := cache[key]; prev != nil {
		v = prev
	} else {
		cache[key] = v
	}
	mu.Unlock()
	return v
}

// clientChunkSize is the unit of parallel client construction. Like the
// cohort partition it is a pure function of the population, never of the
// worker count, and since every client draws only from its private
// generator the chunking affects scheduling and stitch order bookkeeping
// but not a single attribute.
const clientChunkSize = 2048

// clientPart buffers one build chunk's variable-length columns until the
// serial stitch appends them in chunk order.
type clientPart struct {
	interests   []int32
	interestCum []float64
	interestEnd []uint32 // per-client end offsets into the part's flat columns
	idents      []identity
	identEnd    []uint32
}

// buildClients constructs the population. Every per-client attribute —
// location, nickname, flags, presence probability, target cache size,
// interests, identity segments — is drawn from the client's private
// generator (seeded from (Seed, client ID), the same stream that later
// drives its cache fill and daily steps), so clients build concurrently
// as chunk jobs on the pool, bit-identical for any worker count. The
// shared world stream plays no part here; chunk-local buffers for the
// variable-length columns are stitched serially in chunk order so the
// flat layout matches a serial build exactly.
func (w *World) buildClients() {
	cfg := w.Config
	n := cfg.Peers
	w.cl = clientCols{
		nick:        make([]uint16, n),
		countryIdx:  make([]uint8, n),
		asn:         make([]uint32, n),
		flags:       make([]uint8, n),
		onlineProb:  make([]float64, n),
		globalDraw:  make([]float64, n),
		target:      make([]int32, n),
		rng:         make([]rand.PCG, n),
		interestOff: make([]uint32, n+1),
		identOff:    make([]uint32, n+1),
		cacheOff:    make([]uint32, n),
		cacheLen:    make([]int32, n),
		cacheCap:    make([]int32, n),
		pending:     make([][]int32, n),
	}
	countryOf := make(map[string]uint8, len(w.Registry.Countries()))
	for i, c := range w.Registry.Countries() {
		countryOf[c.Code] = uint8(i)
	}
	ic := &interestCache{
		global: make(map[int32][]float64),
		home:   make(map[int64][]float64),
	}
	numChunks := (n + clientChunkSize - 1) / clientChunkSize
	parts := make([]clientPart, numChunks)
	w.pool.Map(numChunks, func(ci int) {
		lo := ci * clientChunkSize
		hi := min(lo+clientChunkSize, n)
		part := &parts[ci]
		for i := lo; i < hi; i++ {
			w.buildClient(i, countryOf, ic, part)
			part.interestEnd = append(part.interestEnd, uint32(len(part.interests)))
			part.identEnd = append(part.identEnd, uint32(len(part.idents)))
		}
	})
	for ci := range parts {
		part := &parts[ci]
		lo := ci * clientChunkSize
		intBase := uint32(len(w.cl.interests))
		idBase := uint32(len(w.cl.idents))
		w.cl.interests = append(w.cl.interests, part.interests...)
		w.cl.interestCum = append(w.cl.interestCum, part.interestCum...)
		w.cl.idents = append(w.cl.idents, part.idents...)
		for j, end := range part.interestEnd {
			w.cl.interestOff[lo+j+1] = intBase + end
		}
		for j, end := range part.identEnd {
			w.cl.identOff[lo+j+1] = idBase + end
		}
		parts[ci] = clientPart{} // the stitched part is dead weight
	}
}

// buildClient draws every attribute of client i from its freshly seeded
// private generator. It writes fixed-width columns at index i and
// appends variable-length data to the chunk's part; all other state it
// touches (registry, topics, samplers) is read-only, and the interest
// memo is internally locked.
func (w *World) buildClient(i int, countryOf map[string]uint8, ic *interestCache, part *clientPart) {
	cfg := w.Config
	w.cl.rng[i].Seed(runner.SubSeed(cfg.Seed, uint64(i)), uint64(i))
	rng := rand.New(&w.cl.rng[i])
	loc := w.Registry.SampleLocation(rng)
	w.cl.countryIdx[i] = countryOf[loc.Country]
	w.cl.asn[i] = loc.ASN
	w.cl.nick[i] = nicknameLetters(rng)
	var flags uint8
	if rng.Float64() < cfg.FreeRiderFraction {
		flags |= flagFreeRider
	}
	if rng.Float64() < cfg.FirewalledFraction {
		flags |= flagFirewalled
	}
	if rng.Float64() >= cfg.NoBrowseFraction {
		flags |= flagBrowseOK
	}
	w.cl.flags[i] = flags
	w.cl.onlineProb[i] = cfg.OnlineMin + rng.Float64()*(cfg.OnlineMax-cfg.OnlineMin)

	if flags&flagFreeRider == 0 {
		target := int32(stats.BoundedLogNormal(rng,
			math.Log(cfg.CacheMedian), cfg.CacheSigma, 1, float64(cfg.MaxCache)))
		w.cl.target[i] = target
		scale := float64(target) / 500
		if scale > 1 {
			scale = 1
		}
		w.cl.globalDraw[i] = cfg.GlobalDraw + cfg.CollectorPopBias*scale
		w.assignInterests(rng, i, loc.Country, target, ic, part)
	}

	// Identity segments: most clients keep one identity; aliased
	// clients switch IP (DHCP) or user hash (reinstall) once.
	ip := w.Registry.AllocIP(rng, loc)
	var hash [16]byte
	for j := 0; j < 16; j += 8 {
		v := rng.Uint64()
		for k := 0; k < 8; k++ {
			hash[j+k] = byte(v >> (8 * k))
		}
	}
	if rng.Float64() < cfg.AliasFraction && cfg.Days > 10 {
		switchDay := 5 + rng.IntN(cfg.Days-10)
		ip2, hash2 := ip, hash
		if rng.Float64() < 0.7 {
			ip2 = w.Registry.AllocIP(rng, loc) // DHCP renumbering
		} else {
			for j := 0; j < 16; j += 8 { // reinstall: new user hash
				v := rng.Uint64()
				for k := 0; k < 8; k++ {
					hash2[j+k] = byte(v >> (8 * k))
				}
			}
		}
		part.idents = append(part.idents,
			identity{0, int32(switchDay - 1), ip, hash},
			identity{int32(switchDay), int32(cfg.Days - 1), ip2, hash2})
	} else {
		part.idents = append(part.idents, identity{0, int32(cfg.Days - 1), ip, hash})
	}
}

// assignInterests subscribes a sharer to topics. Bigger collectors get
// somewhat broader interests, but stay concentrated: archivists cover few
// communities deeply, which makes them near-complete answerers for their
// topics (the paper's generous peers). With probability GeoBias each pick
// comes from the client's own country's topics, which creates the
// geographic clustering of file sources. All picks draw from the
// client's private rng and append to the chunk's part buffers, so
// clients assign interests concurrently.
func (w *World) assignInterests(rng *rand.Rand, i int, country string, target int32, ic *interestCache, part *clientPart) {
	n := 2 + int(target)/60
	if n > 6 {
		n = 6
	}
	if n > w.Config.Topics {
		n = w.Config.Topics // tiny worlds: can't want more topics than exist
	}
	// Collectors concentrate on the most popular communities (archivists
	// mirror the mainstream corpus and, crucially, each other — which is
	// why the paper's hit rate drops when they are removed): their topic
	// picks use weight^gamma with gamma growing up to 2.
	gamma := 1 + float64(target)/500
	if gamma > 2 {
		gamma = 2
	}
	home := w.topicsByCountry[country]
	var homeCum []float64
	if len(home) > 0 {
		key := int64(w.cl.countryIdx[i])<<32 | int64(target)
		homeCum = memo(&ic.mu, ic.home, key, func() []float64 {
			hw := make([]float64, len(home))
			for j, t := range home {
				hw[j] = math.Pow(w.Topics[t].Weight, gamma)
			}
			return stats.Cumulate(hw)
		})
	}
	globalCum := w.topicChoice
	var globalGamma []float64
	if gamma > 1.05 {
		globalGamma = memo(&ic.mu, ic.global, target, func() []float64 {
			gw := make([]float64, len(w.Topics))
			for j := range w.Topics {
				gw[j] = math.Pow(w.Topics[j].Weight, gamma)
			}
			return stats.Cumulate(gw)
		})
	}
	var chosen []int32
	for len(chosen) < n {
		var topicID int
		if homeCum != nil && rng.Float64() < w.Config.GeoBias {
			topicID = home[stats.DrawCum(rng, homeCum)]
		} else if globalGamma != nil {
			topicID = stats.DrawCum(rng, globalGamma)
		} else {
			topicID = globalCum.Draw(rng)
		}
		if !slices.Contains(chosen, int32(topicID)) {
			chosen = append(chosen, int32(topicID))
		}
	}
	// Deterministic order for reproducibility.
	slices.Sort(chosen)
	start := len(part.interestCum)
	for _, t := range chosen {
		part.interests = append(part.interests, t)
		part.interestCum = append(part.interestCum, w.Topics[t].Weight)
	}
	stats.Cumulate(part.interestCum[start:])
}

// buildCohorts partitions the clients into fixed spans and lays out each
// cohort's cache arena: one span per client with capacity target+slack,
// so a cohort steps without ever allocating on the common path. The
// partition is a pure function of the config — never of the worker count.
func (w *World) buildCohorts() {
	size := w.Config.CohortSize
	if size <= 0 {
		size = defaultCohortSize
	}
	n := w.Config.Peers
	numCohorts := (n + size - 1) / size
	w.cohorts = make([]cohort, numCohorts)
	for ci := range w.cohorts {
		lo := ci * size
		hi := min(lo+size, n)
		var arena uint32
		for i := lo; i < hi; i++ {
			w.cl.cacheOff[i] = arena
			if w.cl.flags[i]&flagFreeRider == 0 {
				w.cl.cacheCap[i] = w.cl.target[i] + cacheSlack
				arena += uint32(w.cl.cacheCap[i])
			}
		}
		w.cohorts[ci] = cohort{
			lo:    lo,
			hi:    hi,
			files: make([]int32, arena),
			days:  make([]int32, arena),
		}
	}
}

// cohortOf maps a client index to its cohort. Only warm paths use it;
// cohort loops know their range already.
func (w *World) cohortOf(i int) *cohort {
	size := w.Config.CohortSize
	if size <= 0 {
		size = defaultCohortSize
	}
	return &w.cohorts[i/size]
}

// cacheSpan returns the live (files, days) span of client i.
func (co *cohort) cacheSpan(cl *clientCols, i int) ([]int32, []int32) {
	off, n := cl.cacheOff[i], cl.cacheLen[i]
	return co.files[off : off+uint32(n)], co.days[off : off+uint32(n)]
}

// cacheContains reports whether fi is in client i's cache.
func (co *cohort) cacheContains(cl *clientCols, i int, fi int32) bool {
	files, _ := co.cacheSpan(cl, i)
	_, ok := slices.BinarySearch(files, fi)
	return ok
}

// cacheInsert adds (fi -> day) to client i's sorted cache span, growing
// the span at the arena tail in the rare case it is full. The caller
// guarantees fi is not present.
func (co *cohort) cacheInsert(cl *clientCols, i int, fi, day int32) {
	n := cl.cacheLen[i]
	if n == cl.cacheCap[i] {
		// Relocate to the arena tail with more headroom. The old span is
		// abandoned; caches are capped, so the leak is bounded and rare
		// (a day's additions exceeding cacheSlack before eviction).
		newCap := cl.cacheCap[i] + cl.cacheCap[i]/2 + 8
		off := uint32(len(co.files))
		co.files = append(co.files, make([]int32, newCap)...)
		co.days = append(co.days, make([]int32, newCap)...)
		copy(co.files[off:], co.files[cl.cacheOff[i]:cl.cacheOff[i]+uint32(n)])
		copy(co.days[off:], co.days[cl.cacheOff[i]:cl.cacheOff[i]+uint32(n)])
		cl.cacheOff[i] = off
		cl.cacheCap[i] = newCap
	}
	off := cl.cacheOff[i]
	files := co.files[off : off+uint32(n)]
	pos, _ := slices.BinarySearch(files, fi)
	copy(co.files[off+uint32(pos)+1:off+uint32(n)+1], co.files[off+uint32(pos):off+uint32(n)])
	copy(co.days[off+uint32(pos)+1:off+uint32(n)+1], co.days[off+uint32(pos):off+uint32(n)])
	co.files[off+uint32(pos)] = fi
	co.days[off+uint32(pos)] = day
	cl.cacheLen[i] = n + 1
}

// cacheRemoveAt deletes the entry at position pos of client i's span.
func (co *cohort) cacheRemoveAt(cl *clientCols, i int, pos int) {
	off, n := cl.cacheOff[i], uint32(cl.cacheLen[i])
	copy(co.files[off+uint32(pos):off+n-1], co.files[off+uint32(pos)+1:off+n])
	copy(co.days[off+uint32(pos):off+n-1], co.days[off+uint32(pos)+1:off+n])
	cl.cacheLen[i]--
}

// lifecycle returns the attractiveness multiplier of a file of the given
// age in days: a short linear ramp to the peak, then exponential decay to
// a persistent floor. This produces the sudden-rise/slow-decay popularity
// curves of Fig. 8.
func (w *World) lifecycle(age int) float64 {
	if age < 0 {
		return 0
	}
	ramp := w.Config.RampDays
	if age < ramp {
		return float64(age+1) / float64(ramp+1)
	}
	v := math.Exp(-float64(age-ramp) / w.Config.DecayDays)
	if v < w.Config.LifecycleFloor {
		return w.Config.LifecycleFloor
	}
	return v
}

// refreshSamplers rebuilds each topic's file distribution and the global
// charts distribution with the current file ages, into buffers reused
// across days. Topics are independent pool jobs; the global column is
// filled in parallel chunks and cumulated serially. All of it is a pure
// function of the catalogue, so worker count cannot change a bit.
func (w *World) refreshSamplers() {
	w.pool.Map(len(w.Topics), func(i int) {
		t := &w.Topics[i]
		if len(t.Files) == 0 {
			t.cum = nil
			return
		}
		t.cum = resizeF64(t.cum, len(t.Files))
		for j, fi := range t.Files {
			t.cum[j] = w.cat.baseW[fi] * w.lifecycle(w.day-int(w.cat.release[fi]))
		}
		stats.Cumulate(t.cum)
	})
	w.globalCum = resizeF64(w.globalCum, w.cat.len())
	const chunk = 1 << 16
	numChunks := (w.cat.len() + chunk - 1) / chunk
	w.pool.Map(numChunks, func(c int) {
		lo := c * chunk
		hi := min(lo+chunk, w.cat.len())
		for i := lo; i < hi; i++ {
			// The kind boost applies twice for charts content:
			// cross-interest hits are overwhelmingly big releases
			// (movies), which is what drives Fig. 6's "popular files
			// are large".
			w.globalCum[i] = w.cat.baseW[i] * kindBoost(trace.FileKind(w.cat.kind[i])) *
				w.lifecycle(w.day-int(w.cat.release[i]))
		}
	})
	stats.Cumulate(w.globalCum)
}

// resizeF64 returns a buffer of length n, buf itself if it has the room.
// The catalogue and its topics grow a little every Step, so a buffer that
// has to grow is made a quarter larger than asked: an exact fit would be
// reallocated the next day. Callers overwrite every slot.
func resizeF64(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n, n+n/4)
	}
	return buf[:n]
}

// drawFile samples a file for the client: usually from its interest
// topics, sometimes from the global charts, always avoiding files already
// cached. Returns -1 if no fresh file was found. All draws come from the
// client's private generator; the distributions are only read, so
// concurrent cohorts can draw from the same catalogue.
func (w *World) drawFile(co *cohort, i int, rng *rand.Rand) int32 {
	interests := w.Interests(i)
	interestCum := w.cl.interestCum[w.cl.interestOff[i]:w.cl.interestOff[i+1]]
	for attempt := 0; attempt < 12; attempt++ {
		var fi int32
		if rng.Float64() < w.cl.globalDraw[i] {
			fi = int32(stats.DrawCum(rng, w.globalCum))
		} else {
			topicID := interests[stats.DrawCum(rng, interestCum)]
			t := &w.Topics[topicID]
			if t.cum == nil {
				continue
			}
			fi = t.Files[stats.DrawCum(rng, t.cum)]
		}
		if !co.cacheContains(&w.cl, i, fi) {
			return fi
		}
	}
	return -1
}

// appendBundleMates appends the other files of fi's bundle, in topic
// order, to the client's pending queue.
func (w *World) appendBundleMates(pending []int32, fi int32) []int32 {
	t := &w.Topics[w.cat.topic[fi]]
	bundle := int(w.cat.pos[fi]) / w.Config.BundleSize
	start := bundle * w.Config.BundleSize
	end := min(start+w.Config.BundleSize, len(t.Files))
	for _, other := range t.Files[start:end] {
		if other != fi {
			pending = append(pending, other)
		}
	}
	return pending
}

// nextAdd picks the client's next acquisition: queued bundle-mates first
// (finishing the album), otherwise a fresh draw that may start a new
// bundle run. Returns -1 when nothing fresh is available.
func (w *World) nextAdd(co *cohort, i int, rng *rand.Rand) int32 {
	for len(w.cl.pending[i]) > 0 {
		fi := w.cl.pending[i][0]
		w.cl.pending[i] = w.cl.pending[i][1:]
		if !co.cacheContains(&w.cl, i, fi) {
			return fi
		}
	}
	fi := w.drawFile(co, i, rng)
	if fi >= 0 && w.Config.BundleSize > 1 && rng.Float64() < w.Config.BundleFollow {
		w.cl.pending[i] = w.appendBundleMates(w.cl.pending[i], fi)
	}
	return fi
}

// fillInitialCaches fills every sharer's cache to its target size. Each
// cohort is an independent job on the pool: it mutates only its own
// arena and its clients' columns, and every client draws only from its
// private generator.
func (w *World) fillInitialCaches() {
	w.pool.Map(len(w.cohorts), func(ci int) {
		co := &w.cohorts[ci]
		for i := co.lo; i < co.hi; i++ {
			if w.cl.flags[i]&flagFreeRider != 0 {
				continue
			}
			rng := rand.New(&w.cl.rng[i])
			for w.cl.cacheLen[i] < w.cl.target[i] {
				fi := w.nextAdd(co, i, rng)
				if fi < 0 {
					break // interests saturated
				}
				// Stagger "added" days into the past so initial eviction
				// order is not arbitrary.
				co.cacheInsert(&w.cl, i, fi, -int32(rng.IntN(60)))
			}
			w.cl.pending[i] = nil
		}
	})
}

func (w *World) refreshPresence() {
	w.pool.Map(len(w.cohorts), func(ci int) {
		co := &w.cohorts[ci]
		co.online = 0
		for i := co.lo; i < co.hi; i++ {
			rng := rand.New(&w.cl.rng[i])
			if rng.Float64() < w.cl.onlineProb[i] {
				w.cl.flags[i] |= flagOnline
				co.online++
			} else {
				w.cl.flags[i] &^= flagOnline
			}
		}
	})
	w.mergeOnline()
}

// mergeOnline folds the per-cohort presence partials into the global
// count, in cohort order — the deterministic-merge shape every global
// aggregate of the streamed world follows.
func (w *World) mergeOnline() {
	total := 0
	for ci := range w.cohorts {
		total += w.cohorts[ci].online
	}
	w.onlineCount = total
}

// Step advances the world one day: new releases appear, attractiveness
// ages, online sharers add ~DailyAdds files and evict their oldest ones
// to stay near their target size.
//
// The catalogue update (releases, sampler rebuild) is serial; the
// cohorts then step as jobs on the world's pool. After the samplers are
// rebuilt the catalogue is read-only, each client draws from its private
// generator, and each cohort writes only its own arena and client slots,
// so the day is bit-identical for any worker count.
func (w *World) Step() {
	w.day++
	for i := 0; i < w.Config.NewFilesPerDay; i++ {
		w.addFile(w.topicFileAlloc.Draw(w.rng), w.day)
	}
	w.refreshSamplers()
	w.pool.Map(len(w.cohorts), func(ci int) {
		w.stepCohort(ci)
	})
	w.mergeOnline()
}

// stepCohort runs one cohort's daily update: presence, additions,
// eviction. It touches nothing outside the cohort's arena and its
// clients' column slots.
func (w *World) stepCohort(ci int) {
	co := &w.cohorts[ci]
	co.online = 0
	day := int32(w.day)
	for i := co.lo; i < co.hi; i++ {
		rng := rand.New(&w.cl.rng[i])
		online := rng.Float64() < w.cl.onlineProb[i]
		if online {
			w.cl.flags[i] |= flagOnline
			co.online++
		} else {
			w.cl.flags[i] &^= flagOnline
		}
		if w.cl.flags[i]&flagFreeRider != 0 || !online {
			continue
		}
		adds := stats.Poisson(rng, w.Config.DailyAdds)
		for a := 0; a < adds; a++ {
			if fi := w.nextAdd(co, i, rng); fi >= 0 {
				co.cacheInsert(&w.cl, i, fi, day)
			}
		}
		w.evict(co, i)
	}
}

// evict removes the oldest cache entries until the cache is back at its
// target size, modelling disk-space-driven cleanup. Oldest means the
// smallest (day added, file index) pair, exactly the legacy tie-break.
func (w *World) evict(co *cohort, i int) {
	for w.cl.cacheLen[i] > w.cl.target[i] {
		_, days := co.cacheSpan(&w.cl, i)
		best := 0
		for pos := 1; pos < len(days); pos++ {
			// Strict less keeps the first (lowest file index) of a day.
			if days[pos] < days[best] {
				best = pos
			}
		}
		co.cacheRemoveAt(&w.cl, i, best)
	}
}

// --- population accessors -------------------------------------------------

// NumClients returns the number of underlying clients.
func (w *World) NumClients() int { return len(w.cl.flags) }

// NumFiles returns the catalogue size.
func (w *World) NumFiles() int { return w.cat.len() }

// Online reports whether client i is present on the current day.
func (w *World) Online(i int) bool { return w.cl.flags[i]&flagOnline != 0 }

// OnlineCount returns how many clients are present today (merged from
// the per-cohort presence partials).
func (w *World) OnlineCount() int { return w.onlineCount }

// FreeRider reports whether client i never shares anything.
func (w *World) FreeRider(i int) bool { return w.cl.flags[i]&flagFreeRider != 0 }

// Firewalled reports whether client i cannot accept connections.
func (w *World) Firewalled(i int) bool { return w.cl.flags[i]&flagFirewalled != 0 }

// BrowseOK reports whether client i answers browse requests.
func (w *World) BrowseOK(i int) bool { return w.cl.flags[i]&flagBrowseOK != 0 }

// TargetCache returns client i's target cache size (0 for free riders).
func (w *World) TargetCache(i int) int { return int(w.cl.target[i]) }

// Nickname synthesizes client i's nickname from the packed letter draws.
func (w *World) Nickname(i int) string { return nicknameAt(w.cl.nick[i], i) }

// AppendNickname appends client i's nickname to dst: Nickname without
// the string.
func (w *World) AppendNickname(dst []byte, i int) []byte {
	return appendNickname(dst, w.cl.nick[i], i)
}

// Location returns client i's resolved (country, AS) pair.
func (w *World) Location(i int) geo.Location {
	return geo.Location{
		Country: w.Registry.Countries()[w.cl.countryIdx[i]].Code,
		ASN:     w.cl.asn[i],
	}
}

// Interests returns client i's topic subscriptions (shared column view).
func (w *World) Interests(i int) []int32 {
	return w.cl.interests[w.cl.interestOff[i]:w.cl.interestOff[i+1]]
}

// identities returns client i's identity segments (shared column view).
func (w *World) identities(i int) []identity {
	return w.cl.idents[w.cl.identOff[i]:w.cl.identOff[i+1]]
}

// IdentityAt returns the (ip, userHash) pair of client i in effect on the
// given day.
func (w *World) IdentityAt(i, day int) (ip uint32, hash [16]byte) {
	ids := w.identities(i)
	for _, id := range ids {
		if day >= int(id.startDay) && day <= int(id.endDay) {
			return id.ip, id.hash
		}
	}
	// Days outside the trace use the last identity.
	last := ids[len(ids)-1]
	return last.ip, last.hash
}

// ClientPort is the port client i listens on, every day: with IdentityAt's
// IP it makes the client's endpoint. The crawl's gateway and the served
// snapshot both build endpoints from it, so that a snapshot served from
// a capture names the peers the crawl dialled.
func ClientPort(i int) uint16 { return uint16(4000 + i%60000) }

// ReplayLogins replays the day's login sequence at a first-tier server,
// the one pass the crawl's gateway and a snapshot served from the world
// both answer from. Online clients log in in index order. A client that
// is not firewalled claims its endpoint (IdentityAt's IP, ClientPort):
// the first claimant listens there, and a later one loses the address
// for the day and is not logged in at all, like a real NAT conflict. A
// firewalled client logs in without claiming, and probes reachable only
// where an earlier client already listens on its endpoint — the server's
// callback probe reaches whoever answers there. visit sees each
// logged-in client once, with the day's identity; the ones that are not
// firewalled are the ones that listen.
func (w *World) ReplayLogins(day int, visit func(i int, ip uint32, hash [16]byte, reachable bool)) {
	claimed := make(map[uint64]struct{}, w.onlineCount)
	for i := 0; i < w.NumClients(); i++ {
		if !w.Online(i) {
			continue
		}
		ip, hash := w.IdentityAt(i, day)
		ep := uint64(ip)<<16 | uint64(ClientPort(i))
		_, taken := claimed[ep]
		firewalled := w.Firewalled(i)
		if !firewalled {
			if taken {
				continue // endpoint collision: off the network today
			}
			claimed[ep] = struct{}{}
		}
		visit(i, ip, hash, !firewalled || taken)
	}
}

// CacheSize returns the number of files client i currently shares.
func (w *World) CacheSize(i int) int { return int(w.cl.cacheLen[i]) }

// CacheView returns client i's shared files in ascending catalogue order
// with the day each was added, as shared read-only views into the cohort
// arena. The views are invalidated by the next Step. The order matters:
// observers assign trace FileIDs lazily on first sight, so any other
// order would number files differently run to run.
func (w *World) CacheView(i int) (files, days []int32) {
	return w.cohortOf(i).cacheSpan(&w.cl, i)
}

// --- catalogue accessors --------------------------------------------------

// FileHash returns the content hash of catalogue file fi.
func (w *World) FileHash(fi int) [16]byte { return w.cat.hash[fi] }

// FileSize returns the size in bytes of catalogue file fi.
func (w *World) FileSize(fi int) int64 { return w.cat.size[fi] }

// FileKind returns the content kind of catalogue file fi.
func (w *World) FileKind(fi int) trace.FileKind { return trace.FileKind(w.cat.kind[fi]) }

// FileTopic returns the latent topic of catalogue file fi.
func (w *World) FileTopic(fi int) int { return int(w.cat.topic[fi]) }

// FileRelease returns the release day of catalogue file fi.
func (w *World) FileRelease(fi int) int { return int(w.cat.release[fi]) }

// FileName re-synthesizes the name of catalogue file fi from the packed
// word draws; equal to what the resident world stored.
func (w *World) FileName(fi int) string {
	b := w.cat.nameBit[fi]
	return formatFileName(b>>4, b&0x0F, int(w.cat.topic[fi]),
		trace.FileKind(w.cat.kind[fi]), int(w.cat.pos[fi]))
}

// AppendFileName appends the name of catalogue file fi to dst: FileName
// without the string, for callers that render names straight into a
// frame.
func (w *World) AppendFileName(dst []byte, fi int) []byte {
	b := w.cat.nameBit[fi]
	return appendFileName(dst, b>>4, b&0x0F, int(w.cat.topic[fi]),
		trace.FileKind(w.cat.kind[fi]), int(w.cat.pos[fi]))
}

// FileNameLen is the length of catalogue file fi's name, computed from
// the packed word draws without rendering it.
func (w *World) FileNameLen(fi int) int {
	b := w.cat.nameBit[fi]
	return fileNameLen(b>>4, b&0x0F, int(w.cat.topic[fi]),
		trace.FileKind(w.cat.kind[fi]), int(w.cat.pos[fi]))
}

// File materializes the full catalogue row fi.
func (w *World) File(fi int) File {
	return File{
		Index:      fi,
		Topic:      int(w.cat.topic[fi]),
		Kind:       trace.FileKind(w.cat.kind[fi]),
		Size:       w.cat.size[fi],
		Name:       w.FileName(fi),
		Hash:       w.cat.hash[fi],
		ReleaseDay: int(w.cat.release[fi]),
		Bundle:     int(w.cat.pos[fi]) / w.Config.BundleSize,
	}
}

// SourceCount returns how many clients currently share the given file,
// summed from per-cohort partials in cohort order. Intended for tests and
// diagnostics; O(total cached files).
func (w *World) SourceCount(fileIndex int) int {
	fi := int32(fileIndex)
	partials := runner.Collect(w.pool, len(w.cohorts), func(ci int) int {
		co := &w.cohorts[ci]
		n := 0
		for i := co.lo; i < co.hi; i++ {
			if co.cacheContains(&w.cl, i, fi) {
				n++
			}
		}
		return n
	})
	total := 0
	for _, p := range partials {
		total += p
	}
	return total
}

// Footprint reports the approximate resident cost of the world's columns
// (edcrawl's heartbeat prints it alongside the allocator-level view; the
// gated bytes_per_peer bench metric is measured at the allocator).
type Footprint struct {
	CatalogueBytes  int64
	ClientBytes     int64
	CacheArenaBytes int64
	SamplerBytes    int64
}

// Total sums all components.
func (f Footprint) Total() int64 {
	return f.CatalogueBytes + f.ClientBytes + f.CacheArenaBytes + f.SamplerBytes
}

// Footprint measures the world's column storage. It undercounts Go/heap
// overheads (it is not a substitute for runtime.MemStats) but attributes
// the dominant arrays exactly.
func (w *World) Footprint() Footprint {
	var f Footprint
	f.CatalogueBytes = int64(w.cat.len()) * (16 + 8 + 4 + 4 + 4 + 1 + 1 + 8)
	for i := range w.Topics {
		f.CatalogueBytes += int64(len(w.Topics[i].Files)) * 4
		f.SamplerBytes += int64(len(w.Topics[i].cum)) * 8
	}
	f.SamplerBytes += int64(len(w.globalCum)) * 8
	n := int64(w.NumClients())
	f.ClientBytes = n*(2+1+4+1+8+8+4+16+4+4+4+4+4+24) +
		int64(len(w.cl.interests))*(4+8) + int64(len(w.cl.idents))*28
	for ci := range w.cohorts {
		f.CacheArenaBytes += int64(len(w.cohorts[ci].files)) * 8
	}
	return f
}

// String summarizes the world state.
func (w *World) String() string {
	return fmt.Sprintf("world{day %d, %d clients, %d files, %d topics, %d cohorts}",
		w.day, w.NumClients(), w.NumFiles(), len(w.Topics), len(w.cohorts))
}
