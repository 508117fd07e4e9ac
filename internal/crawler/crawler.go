// Package crawler reimplements the paper's measurement instrument: a
// modified client that discovers eDonkey users through server nickname
// queries and browses their cache contents daily.
//
// The methodology follows Section 2.2 of the paper:
//
//  1. connect to the known servers and retrieve their server lists;
//  2. repeatedly submit nickname-prefix queries (the paper used 26^3
//     queries, "aaa" through "zzz") — each reply is capped by the server
//     (200 users), so short prefixes under-sample dense nicknames;
//  3. keep only reachable (high-ID, non-firewalled) clients;
//  4. connect to each reachable client every day and retrieve the list
//     and description of all files in its cache, within a daily
//     connection budget (the paper's crawler lost bandwidth over time,
//     which is why its daily client counts decline in Fig. 1);
//  5. record everything as per-day snapshots.
//
// Everything the crawler learns — identities, countries (via IP lookup),
// file names/sizes/types — comes out of protocol messages, never out of
// the simulator's internal state.
package crawler

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"

	"edonkey/internal/edonkey"
	"edonkey/internal/protocol"
	"edonkey/internal/trace"
	"edonkey/internal/workload"
)

// Config tunes the crawl.
type Config struct {
	// PrefixLen is the nickname-prefix sweep depth: 1 = 26 queries,
	// 2 = 676, 3 = the paper's 17,576. Default 2 (enough to discover
	// everyone at laptop scale while keeping tests fast).
	PrefixLen int
	// InitialBudget and FinalBudget bound the number of browse attempts
	// per day, interpolated linearly across the crawl to model the
	// paper's declining crawler bandwidth. 0 means unlimited.
	InitialBudget int
	FinalBudget   int
}

// DefaultConfig returns an unlimited-budget 2-letter sweep.
func DefaultConfig() Config {
	return Config{PrefixLen: 2}
}

// serverEndpoint is where the simulation's indexing server lives.
var serverEndpoint = protocol.Endpoint{IP: 0xFFFE0001, Port: 4661}

// crawlerEndpoint is the crawler's own address.
var crawlerEndpoint = protocol.Endpoint{IP: 0xFFFE0002, Port: 4662}

// Crawler drives a crawl of a workload.World over the eDonkey protocol.
// The world side of the wire is served by a worldGateway view over the
// columnar population, so the crawl's resident cost scales with what the
// crawler observes, never with the number of simulated clients.
type Crawler struct {
	cfg     Config
	world   *workload.World
	network *edonkey.Network
	gateway *worldGateway
	builder *trace.Builder

	// identity bookkeeping: (user hash, IP) pairs become trace peers.
	peerIDs map[identityKey]trace.PeerID
	fileIDs map[[16]byte]trace.FileID

	// Stats accumulates observable crawl counters.
	Stats Stats

	// Progress, when set, is invoked after each crawled day (used by
	// edcrawl's -progress heartbeat).
	Progress func(day, totalDays int)
}

type identityKey struct {
	hash [16]byte
	ip   uint32
}

// Stats reports what the crawl did, day by day.
type Stats struct {
	Days            int
	Queries         int
	DiscoveredUsers int // user entries returned by servers (with repeats)
	UniqueUsers     int // distinct (hash, ip) identities discovered
	LowIDSkipped    int // discovered but firewalled
	BrowseAttempts  int
	BrowseRejected  int // browse disabled
	BrowseFailed    int // connection failures (peer went offline)
	Snapshots       int // successful browses recorded
	BudgetExhausted int // days the budget cut discovery short
}

// New prepares a crawler over a fresh switchboard for the given world.
func New(w *workload.World, cfg Config) (*Crawler, error) {
	if cfg.PrefixLen <= 0 {
		cfg.PrefixLen = 2
	}
	if cfg.PrefixLen > 3 {
		return nil, fmt.Errorf("crawler: prefix length %d too deep", cfg.PrefixLen)
	}
	c := &Crawler{
		cfg:     cfg,
		world:   w,
		network: edonkey.NewNetwork(),
		builder: trace.NewBuilder(),
		peerIDs: make(map[identityKey]trace.PeerID),
		fileIDs: make(map[[16]byte]trace.FileID),
	}
	gw, err := newWorldGateway(w, c.network)
	if err != nil {
		return nil, err
	}
	c.gateway = gw
	return c, nil
}

// prefixes enumerates the nickname sweep queries.
func (c *Crawler) prefixes() []string {
	const letters = "abcdefghijklmnopqrstuvwxyz"
	out := []string{""}
	for d := 0; d < c.cfg.PrefixLen; d++ {
		next := make([]string, 0, len(out)*26)
		for _, p := range out {
			for i := 0; i < 26; i++ {
				next = append(next, p+string(letters[i]))
			}
		}
		out = next
	}
	return out
}

// budgetFor interpolates the daily browse budget.
func (c *Crawler) budgetFor(day, totalDays int) int {
	if c.cfg.InitialBudget == 0 {
		return int(^uint(0) >> 1) // unlimited
	}
	if totalDays <= 1 {
		return c.cfg.InitialBudget
	}
	final := c.cfg.FinalBudget
	if final == 0 {
		final = c.cfg.InitialBudget
	}
	span := float64(day) / float64(totalDays-1)
	return c.cfg.InitialBudget + int(span*float64(final-c.cfg.InitialBudget))
}

// Run crawls the world for the given number of days (stepping the world
// between days) and returns the resulting full trace.
func (c *Crawler) Run(days int) (*trace.Trace, error) {
	for d := 0; d < days; d++ {
		if d > 0 {
			c.world.Step()
		}
		if err := c.crawlDay(d, days); err != nil {
			return nil, err
		}
		c.Stats.Days++
		if c.Progress != nil {
			c.Progress(d, days)
		}
	}
	return c.builder.Build(), nil
}

// RunStream crawls like Run but hands each completed day straight to the
// sink (typically an open trace.EDTWriter) and drops it from memory, so
// the crawl's resident set stays one day deep no matter how long the
// capture runs. Identity metadata still accumulates (it is the trace's
// symbol table); read it with Meta when the run ends to finalize the
// sink. The recorded days and metadata are bit-identical to a Run of the
// same world and config.
func (c *Crawler) RunStream(days int, sink trace.DaySink) error {
	for d := 0; d < days; d++ {
		if d > 0 {
			c.world.Step()
		}
		if err := c.crawlDay(d, days); err != nil {
			return err
		}
		c.Stats.Days++
		if snap, ok := c.builder.DrainDay(d); ok {
			if err := sink.AppendDay(snap); err != nil {
				return err
			}
		}
		if c.Progress != nil {
			c.Progress(d, days)
		}
	}
	return nil
}

// Meta returns the file and peer identities registered so far, as shared
// read-only views (the arguments EDTWriter.Finish expects).
func (c *Crawler) Meta() ([]trace.FileMeta, []trace.PeerInfo) {
	return c.builder.Files(), c.builder.Peers()
}

// crawlDay brings the day's population online (one deterministic gateway
// pass over the columns, never a boxed client), runs the sweep and
// browses.
func (c *Crawler) crawlDay(day, totalDays int) error {
	c.gateway.beginDay(day)

	me := edonkey.NewClient(c.network, [16]byte{0xCA, 0x11}, crawlerEndpoint, "crawler")
	if err := me.GoOnline(); err != nil {
		return err
	}
	defer me.GoOffline()

	sess, err := me.Connect(serverEndpoint)
	if err != nil {
		return fmt.Errorf("crawler: server connect: %w", err)
	}
	defer sess.Close()
	if _, err := sess.ServerList(); err != nil {
		return fmt.Errorf("crawler: server list: %w", err)
	}

	// Discovery sweep.
	reachable := make(map[identityKey]protocol.UserEntry)
	for _, q := range c.prefixes() {
		users, err := sess.SearchUsers(q)
		if err != nil {
			return fmt.Errorf("crawler: user search %q: %w", q, err)
		}
		c.Stats.Queries++
		c.Stats.DiscoveredUsers += len(users)
		for _, u := range users {
			if u.Hash == me.UserHash {
				continue // the crawler's own login
			}
			key := identityKey{u.Hash, u.Endpoint.IP}
			if _, seen := reachable[key]; seen {
				continue
			}
			if u.ClientID < protocol.LowIDThreshold {
				c.Stats.LowIDSkipped++
				continue
			}
			reachable[key] = u
			c.Stats.UniqueUsers++
		}
	}

	// Browse pass, within the day's budget. The browse set and its order
	// are fixed before the first dial (sorted identities, budget prefix),
	// so the round-trips — the dominant cost of a crawl day at scale —
	// can run as independent pool jobs while the trace-side commit
	// (identity registration, first-sight file numbering, stats) stays a
	// single serial pass in key order. Any worker count produces the same
	// trace bit-for-bit. A job brings back the answer's entry list as it
	// came off the wire and the commit walks it in place; jobs run in
	// bounded chunks so at most one chunk's lists is ever resident.
	keys := make([]identityKey, 0, len(reachable))
	for k := range reachable {
		keys = append(keys, k)
	}
	sortIdentityKeys(keys)
	budget := c.budgetFor(day, totalDays)
	n := len(keys)
	if n > budget {
		n = budget
		c.Stats.BudgetExhausted++
	}
	type browseResult struct {
		list []byte // encoded entry list, see protocol.WalkFiles
		err  error
	}
	pool := c.world.Pool()
	results := make([]browseResult, min(n, browseChunkSize))
	for start := 0; start < n; start += browseChunkSize {
		chunk := keys[start:min(start+browseChunkSize, n)]
		pool.Map(len(chunk), func(j int) {
			list, err := me.BrowseList(reachable[chunk[j]].Endpoint)
			results[j] = browseResult{list, err}
		})
		for j, key := range chunk {
			c.Stats.BrowseAttempts++
			r := results[j]
			results[j] = browseResult{} // release the list
			if r.err != nil {
				if c.gateway.wasBrowsable(key) {
					c.Stats.BrowseFailed++ // unexpected: peer vanished mid-day
				} else {
					c.Stats.BrowseRejected++ // browse disabled by the user
				}
				continue
			}
			c.record(day, reachable[key], r.list)
			c.Stats.Snapshots++
		}
	}
	return nil
}

// browseChunkSize bounds how many browse replies are in flight at once.
// It is a constant, never derived from the worker count, so chunking
// affects memory and scheduling but not one byte of the trace.
const browseChunkSize = 4096

// record registers the browsed identity and its cache in the trace. list
// is the browse answer's encoded entry list, already checked by
// BrowseList; it is walked in place, so a file costs a name string only
// the first time its hash is seen.
func (c *Crawler) record(day int, u protocol.UserEntry, list []byte) {
	key := identityKey{u.Hash, u.Endpoint.IP}
	pid, ok := c.peerIDs[key]
	if !ok {
		info := trace.PeerInfo{
			UserHash: u.Hash,
			IP:       u.Endpoint.IP,
			Nickname: u.Nickname,
			BrowseOK: true,
			AliasOf:  -1, // the crawler cannot know; Filter() works from IP/hash
		}
		if loc, found := c.world.Registry.Lookup(u.Endpoint.IP); found {
			info.Country = loc.Country
			info.ASN = loc.ASN
		}
		pid = c.builder.AddPeer(info)
		c.peerIDs[key] = pid
	}
	w := protocol.WalkFiles(list)
	cache := make([]trace.FileID, 0, w.Len())
	var f protocol.FileView
	for w.Next(&f) {
		fid, ok := c.fileIDs[f.Hash]
		if !ok {
			fid = c.builder.AddFile(trace.FileMeta{
				Hash:       f.Hash,
				Name:       string(f.Name),
				Size:       int64(f.Size),
				Kind:       trace.ParseKind(string(f.Type)),
				Topic:      -1, // latent; invisible to a real crawler
				ReleaseDay: -1,
			})
			c.fileIDs[f.Hash] = fid
		}
		cache = append(cache, fid)
	}
	// The slice was built for this observation; hand it over instead of
	// having the builder copy it again.
	c.builder.ObserveOwned(day, pid, cache)
}

func sortIdentityKeys(keys []identityKey) {
	slices.SortFunc(keys, func(a, b identityKey) int {
		if c := bytes.Compare(a.hash[:], b.hash[:]); c != 0 {
			return c
		}
		return cmp.Compare(a.ip, b.ip)
	})
}

// Crawl is the one-call form: build the world from cfg, crawl it for its
// configured number of days and return the trace plus crawl statistics.
func Crawl(worldCfg workload.Config, crawlCfg Config) (*trace.Trace, Stats, error) {
	w, err := workload.New(worldCfg)
	if err != nil {
		return nil, Stats{}, err
	}
	c, err := New(w, crawlCfg)
	if err != nil {
		return nil, Stats{}, err
	}
	tr, err := c.Run(w.Config.Days)
	if err != nil {
		return nil, Stats{}, err
	}
	return tr, c.Stats, nil
}
