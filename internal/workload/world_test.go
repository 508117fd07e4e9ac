package workload

import (
	"math"
	"slices"
	"testing"

	"edonkey/internal/stats"
	"edonkey/internal/trace"
)

// SmallConfig is a fast configuration used throughout the test suite.
func smallConfig(seed uint64) Config {
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.Peers = 600
	cfg.Days = 20
	cfg.Topics = 60
	cfg.InitialFiles = 20000
	cfg.NewFilesPerDay = 180
	return cfg
}

func TestConfigValidate(t *testing.T) {
	cfg := Config{}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("zero config should default-validate: %v", err)
	}
	if cfg.Peers != DefaultConfig().Peers {
		t.Errorf("defaults not applied: Peers = %d", cfg.Peers)
	}
	bad := DefaultConfig()
	bad.FreeRiderFraction = 1.5
	if err := bad.Validate(); err == nil {
		t.Error("expected error for FreeRiderFraction out of range")
	}
	bad = DefaultConfig()
	bad.OnlineMin = 0.9
	bad.OnlineMax = 0.5
	if err := bad.Validate(); err == nil {
		t.Error("expected error for inverted online bounds")
	}
	bad = DefaultConfig()
	bad.InitialFiles = 3
	bad.Topics = 10
	if err := bad.Validate(); err == nil {
		t.Error("expected error for InitialFiles < Topics")
	}
	bad = DefaultConfig()
	bad.CohortSize = -1
	if err := bad.Validate(); err == nil {
		t.Error("expected error for negative CohortSize")
	}
}

func TestWorldDeterminism(t *testing.T) {
	w1, err := New(smallConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	w2, err := New(smallConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		w1.Step()
		w2.Step()
	}
	if w1.NumFiles() != w2.NumFiles() {
		t.Fatalf("file counts diverge: %d vs %d", w1.NumFiles(), w2.NumFiles())
	}
	for i := 0; i < w1.NumClients(); i++ {
		if w1.CacheSize(i) != w2.CacheSize(i) || w1.Location(i) != w2.Location(i) {
			t.Fatalf("client %d diverged", i)
		}
	}
	// Different seed must differ somewhere.
	w3, err := New(smallConfig(43))
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := 0; i < w1.NumClients(); i++ {
		if w1.Location(i) != w3.Location(i) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical client locations")
	}
}

func TestFreeRidersShareNothing(t *testing.T) {
	w, err := New(smallConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		w.Step()
	}
	frac := 0.0
	for i := 0; i < w.NumClients(); i++ {
		if w.FreeRider(i) {
			frac++
			if w.CacheSize(i) != 0 {
				t.Fatalf("free-rider %d shares %d files", i, w.CacheSize(i))
			}
		} else if w.CacheSize(i) == 0 {
			t.Errorf("sharer %d has an empty cache", i)
		}
	}
	frac /= float64(w.NumClients())
	if frac < 0.65 || frac > 0.85 {
		t.Errorf("free-rider fraction = %v, want ~0.75", frac)
	}
}

func TestCacheSizesNearTarget(t *testing.T) {
	w, err := New(smallConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		w.Step()
	}
	for i := 0; i < w.NumClients(); i++ {
		if w.FreeRider(i) {
			continue
		}
		if w.CacheSize(i) > w.TargetCache(i) {
			t.Errorf("client %d cache %d exceeds target %d", i, w.CacheSize(i), w.TargetCache(i))
		}
	}
}

// The generosity distribution must reproduce the paper's skew: the top 15%
// of sharers hold the majority (~75%) of all shared files.
func TestGenerositySkew(t *testing.T) {
	w, err := New(smallConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	var sizes []float64
	for i := 0; i < w.NumClients(); i++ {
		if !w.FreeRider(i) {
			sizes = append(sizes, float64(w.CacheSize(i)))
		}
	}
	share, err := stats.TopShare(sizes, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if share < 0.55 || share > 0.92 {
		t.Errorf("top-15%% share = %v, want ~0.75", share)
	}
	// ~80% of sharers under 100 files.
	under, err := stats.Percentile(sizes, 80)
	if err != nil {
		t.Fatal(err)
	}
	if under > 260 {
		t.Errorf("80th percentile cache = %v files, want <~100 (loose bound 260)", under)
	}
}

func TestLifecycleShape(t *testing.T) {
	w, err := New(smallConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if w.lifecycle(-1) != 0 {
		t.Error("unreleased files must have zero attractiveness")
	}
	peak := w.lifecycle(w.Config.RampDays)
	if w.lifecycle(0) >= peak {
		t.Error("ramp must rise to the peak")
	}
	if w.lifecycle(w.Config.RampDays+5) >= peak {
		t.Error("attractiveness must decay after the peak")
	}
	old := w.lifecycle(1000)
	if old != w.Config.LifecycleFloor {
		t.Errorf("old files should sit at the floor, got %v", old)
	}
}

func TestIdentitySegments(t *testing.T) {
	cfg := smallConfig(5)
	cfg.AliasFraction = 0.999 // force aliasing
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	aliased := 0
	for i := 0; i < w.NumClients(); i++ {
		ids := w.identities(i)
		if len(ids) == 2 {
			aliased++
			a, b := ids[0], ids[1]
			if a.endDay+1 != b.startDay {
				t.Fatalf("client %d identity gap: %+v", i, ids)
			}
			if a.ip == b.ip && a.hash == b.hash {
				t.Fatalf("client %d alias changed nothing", i)
			}
			ip0, h0 := w.IdentityAt(i, 0)
			if ip0 != a.ip || h0 != a.hash {
				t.Fatalf("IdentityAt(0) wrong for client %d", i)
			}
			ipEnd, hEnd := w.IdentityAt(i, cfg.Days-1)
			if ipEnd != b.ip || hEnd != b.hash {
				t.Fatalf("IdentityAt(last) wrong for client %d", i)
			}
		}
	}
	if aliased < w.NumClients()*9/10 {
		t.Errorf("only %d/%d clients aliased", aliased, w.NumClients())
	}
}

func TestCountryMixEmerges(t *testing.T) {
	cfg := smallConfig(6)
	cfg.Peers = 4000
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for i := 0; i < w.NumClients(); i++ {
		counts[w.Location(i).Country]++
	}
	fr := float64(counts["FR"]) / float64(cfg.Peers)
	de := float64(counts["DE"]) / float64(cfg.Peers)
	if math.Abs(fr-0.29) > 0.04 || math.Abs(de-0.28) > 0.04 {
		t.Errorf("country mix FR=%v DE=%v, want ~0.29/~0.28", fr, de)
	}
}

// Popular files must be disproportionately large (paper Fig. 6).
func TestPopularFilesAreLarge(t *testing.T) {
	tr := testTrace(t, 7)
	sources := tr.SourcesPerFile()
	var popBig, popAll, allBig, all float64
	for fid, n := range sources {
		if n == 0 {
			continue
		}
		big := tr.FileSize(trace.FileID(fid)) > 600<<20
		all++
		if big {
			allBig++
		}
		if n >= 5 {
			popAll++
			if big {
				popBig++
			}
		}
	}
	if popAll < 20 {
		t.Skipf("too few popular files (%v) at this scale", popAll)
	}
	fracPop := popBig / popAll
	fracAll := allBig / all
	if fracPop < 2.5*fracAll {
		t.Errorf("popular files not disproportionately large: %.3f vs %.3f overall", fracPop, fracAll)
	}
}

func testTrace(t *testing.T, seed uint64) *trace.Trace {
	t.Helper()
	tr, _, err := Collect(smallConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("collected trace invalid: %v", err)
	}
	return tr
}

func TestCollectProducesValidTrace(t *testing.T) {
	tr := testTrace(t, 8)
	if tr.DurationDays() < 15 {
		t.Errorf("trace too short: %d days", tr.DurationDays())
	}
	if tr.Observations() == 0 || tr.DistinctFiles() == 0 {
		t.Fatal("empty trace")
	}
	// Firewalled or browse-disabled clients must never appear.
	for i := 0; i < tr.NumPeers(); i++ {
		if tr.PeerFirewalled(trace.PeerID(i)) || !tr.PeerBrowseOK(trace.PeerID(i)) {
			t.Fatalf("uncrawlable peer in trace: %+v", tr.PeerInfoAt(trace.PeerID(i)))
		}
	}
	// Free-riders appear with empty caches.
	if tr.FreeRiders() == 0 {
		t.Error("no free-riders observed")
	}
}

func TestCollectAliasesAppearAsDuplicates(t *testing.T) {
	cfg := smallConfig(9)
	cfg.AliasFraction = 0.9
	tr, _, err := Collect(cfg)
	if err != nil {
		t.Fatal(err)
	}
	aliased := 0
	for i := 0; i < tr.NumPeers(); i++ {
		p := tr.PeerInfoAt(trace.PeerID(i))
		if p.AliasOf >= 0 {
			aliased++
			// The alias must share an IP or a user hash with its
			// predecessor — that is what Filter() keys on.
			prev := tr.PeerInfoAt(trace.PeerID(p.AliasOf))
			if prev.IP != p.IP && prev.UserHash != p.UserHash {
				t.Fatalf("alias %d shares nothing with predecessor", p.ID)
			}
		}
	}
	if aliased == 0 {
		t.Fatal("no aliases observed despite AliasFraction=0.9")
	}
	// Filtering must strictly reduce the sharing population.
	ft := tr.Filter()
	if ft.NumPeers() >= tr.NumPeers() {
		t.Errorf("filter removed nothing: %d -> %d", tr.NumPeers(), ft.NumPeers())
	}
}

// File popularity must follow a Zipf-like rank/replication law (Fig. 5):
// linear on log-log after the head, with a clearly negative slope.
func TestPopularityIsZipfLike(t *testing.T) {
	tr := testTrace(t, 10)
	sources := tr.SourcesPerFile()
	var counts []int
	for _, n := range sources {
		if n > 0 {
			counts = append(counts, n)
		}
	}
	if len(counts) < 100 {
		t.Fatalf("too few observed files: %d", len(counts))
	}
	// Sort descending = popularity rank order.
	for i := 1; i < len(counts); i++ {
		for j := i; j > 0 && counts[j-1] < counts[j]; j-- {
			counts[j-1], counts[j] = counts[j], counts[j-1]
		}
	}
	var xs, ys []float64
	for r, n := range counts {
		xs = append(xs, float64(r+1))
		ys = append(ys, float64(n))
	}
	slope, _, r2, ok := stats.FitPowerLaw(xs, ys)
	if !ok {
		t.Fatal("power-law fit failed")
	}
	if slope > -0.2 || slope < -2.5 {
		t.Errorf("rank/replication slope = %v, want clearly negative Zipf-like", slope)
	}
	if r2 < 0.5 {
		t.Errorf("rank/replication fit r2 = %v, want reasonably linear on log-log", r2)
	}
}

// Max spread must stay well under 100% of clients (paper: 0.7% max).
func TestSpreadIsBounded(t *testing.T) {
	tr := testTrace(t, 11)
	sources := tr.SourcesPerFile()
	maxSources := 0
	for _, n := range sources {
		if n > maxSources {
			maxSources = n
		}
	}
	peers := tr.ObservedPeers()
	frac := float64(maxSources) / float64(peers)
	if frac > 0.25 {
		t.Errorf("most popular file held by %.1f%% of peers, want a small fraction", frac*100)
	}
}

func TestStepGrowsCatalogue(t *testing.T) {
	w, err := New(smallConfig(12))
	if err != nil {
		t.Fatal(err)
	}
	before := w.NumFiles()
	w.Step()
	if w.NumFiles() != before+w.Config.NewFilesPerDay {
		t.Errorf("catalogue grew by %d, want %d", w.NumFiles()-before, w.Config.NewFilesPerDay)
	}
	if w.Day() != 1 {
		t.Errorf("Day = %d, want 1", w.Day())
	}
}

func TestInterestsAreHomeBiased(t *testing.T) {
	cfg := smallConfig(13)
	cfg.Peers = 2000
	cfg.GeoBias = 0.9
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	homeCount, total := 0, 0
	for i := 0; i < w.NumClients(); i++ {
		if w.FreeRider(i) {
			continue
		}
		for _, tid := range w.Interests(i) {
			total++
			if w.Topics[tid].HomeCountry == w.Location(i).Country {
				homeCount++
			}
		}
	}
	if total == 0 {
		t.Fatal("no interests assigned")
	}
	frac := float64(homeCount) / float64(total)
	if frac < 0.5 {
		t.Errorf("home-topic interest fraction = %v, want majority with GeoBias=0.9", frac)
	}
}

// clientFingerprint summarizes the stochastic per-client state that the
// parallel cohort step touches: presence, cache contents and added-days.
func clientFingerprint(w *World, i int) uint64 {
	var h uint64 = 1469598103934665603 // FNV offset basis
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	if w.Online(i) {
		mix(1)
	}
	files, days := w.CacheView(i)
	for j, fi := range files {
		mix(uint64(uint32(fi)))
		mix(uint64(uint32(days[j])) + 1<<32)
	}
	return h
}

// The engine guarantee at the generator layer: worlds evolved with 1, 4
// and GOMAXPROCS workers — and with any cohort partition — are
// bit-identical, because every client draws from a private generator and
// every cohort owns its own arena.
func TestWorldDeterministicAcrossWorkers(t *testing.T) {
	evolve := func(workers, cohortSize int) []uint64 {
		cfg := smallConfig(77)
		cfg.Peers = 300
		cfg.InitialFiles = 8000
		cfg.NewFilesPerDay = 100
		cfg.Workers = workers
		cfg.CohortSize = cohortSize
		w, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for d := 0; d < 6; d++ {
			w.Step()
		}
		out := make([]uint64, w.NumClients())
		for i := range out {
			out[i] = clientFingerprint(w, i)
		}
		return out
	}
	want := evolve(1, 0)
	for _, v := range []struct{ workers, cohortSize int }{
		{4, 0}, {0, 0}, {4, 37}, {1, 1},
	} {
		got := evolve(v.workers, v.cohortSize)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d cohort=%d: client %d state depends on scheduling",
					v.workers, v.cohortSize, i)
			}
		}
	}
}

// Collect must also be invariant to the worker count end to end: the
// whole observed trace, not just the final world state.
func TestCollectDeterministicAcrossWorkers(t *testing.T) {
	observe := func(workers int) *trace.Trace {
		cfg := smallConfig(88)
		cfg.Peers = 250
		cfg.Days = 6
		cfg.InitialFiles = 7000
		cfg.NewFilesPerDay = 80
		cfg.Workers = workers
		tr, _, err := Collect(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	want := observe(1)
	got := observe(0)
	if want.Observations() != got.Observations() {
		t.Fatalf("observations differ: %d vs %d", want.Observations(), got.Observations())
	}
	if len(want.Days) != len(got.Days) {
		t.Fatalf("day counts differ: %d vs %d", len(want.Days), len(got.Days))
	}
	for d := range want.Days {
		a, b := want.Days[d], got.Days[d]
		if a.ObservedRows() != b.ObservedRows() {
			t.Fatalf("day %d: observed row counts differ", a.Day)
		}
		if !a.Equal(b) {
			t.Fatalf("day %d: snapshots differ", a.Day)
		}
	}
}

// The login replay's rules, on a world built by hand so that endpoints
// do collide: ClientPort repeats every 60000 clients, so two clients
// that far apart with one IP contend for one endpoint — which no world
// small enough for a test produces on its own.
func TestReplayLoginsRules(t *testing.T) {
	clients := []struct {
		i     int
		ip    uint32
		flags uint8
	}{
		{0, 10, flagOnline},                       // claims 10:4000
		{1, 11, flagOnline | flagFirewalled},      // nobody listens on 11:4001 yet
		{2, 12, 0},                                // offline
		{60000, 10, flagOnline},                   // 10:4000 is taken: off the network today
		{60001, 11, flagOnline},                   // client 1 claimed nothing: 11:4001 is free
		{60002, 12, flagOnline | flagFirewalled},  // client 2 is offline: nobody listens on 12:4002
		{120000, 10, flagOnline | flagFirewalled}, // the probe reaches client 0
		{120001, 11, flagOnline | flagFirewalled}, // the probe reaches client 60001
	}
	type login struct {
		i         int
		ip        uint32
		reachable bool
	}
	want := []login{{0, 10, true}, {1, 11, false}, {60001, 11, true}, {60002, 12, false}, {120000, 10, true}, {120001, 11, true}}

	const n = 120002
	w := &World{}
	w.cl.flags = make([]uint8, n)
	w.cl.identOff = make([]uint32, n+1)
	for _, c := range clients {
		w.cl.flags[c.i] = c.flags
		w.cl.identOff[c.i+1] = 1
	}
	for i := 0; i < n; i++ {
		w.cl.identOff[i+1] += w.cl.identOff[i]
	}
	for _, c := range clients {
		w.cl.idents = append(w.cl.idents, identity{0, 0, c.ip, [16]byte{byte(c.ip)}})
	}

	var got []login
	w.ReplayLogins(0, func(i int, ip uint32, hash [16]byte, reachable bool) {
		if hash != ([16]byte{byte(ip)}) {
			t.Errorf("client %d logs in with hash %x, not the one of its identity", i, hash)
		}
		got = append(got, login{i, ip, reachable})
	})
	if !slices.Equal(got, want) {
		t.Errorf("logins (client, ip, reachable):\n got %v\nwant %v", got, want)
	}
}
