package analysis

import (
	"cmp"
	"fmt"
	"slices"

	"edonkey/internal/geo"
	"edonkey/internal/runner"
	"edonkey/internal/stats"
	"edonkey/internal/trace"
)

// Table1 reproduces the paper's Table 1: general characteristics of the
// full, filtered and extrapolated traces.
func Table1(full, filtered, extrapolated *trace.Trace) *Table {
	t := &Table{
		ID:     "table1",
		Title:  "General characteristics of the trace",
		Header: []string{"quantity", "value"},
	}
	add := func(k, v string) { t.Rows = append(t.Rows, []string{k, v}) }
	add("Full trace", "")
	add("  Duration (days)", fmtInt(full.DurationDays()))
	add("  Number of uniquely identified clients", fmtInt(full.ObservedPeers()))
	fr := full.FreeRiders()
	add("  Number of free-riders", fmt.Sprintf("%d (%.0f %%)", fr,
		100*float64(fr)/float64(max(1, full.ObservedPeers()))))
	add("  Number of successful snapshots", fmtInt(full.Observations()))
	add("  Number of distinct files", fmtInt(full.DistinctFiles()))
	add("  Space used by distinct files", fmtBytes(full.DistinctBytes()))
	add("Filtered trace", "")
	add("  Number of distinct clients", fmtInt(filtered.ObservedPeers()))
	ffr := filtered.FreeRiders()
	add("  Number of free-riders", fmt.Sprintf("%d (%.0f %%)", ffr,
		100*float64(ffr)/float64(max(1, filtered.ObservedPeers()))))
	add("Extrapolated trace", "")
	add("  Duration (days)", fmtInt(extrapolated.DurationDays()))
	add("  Number of distinct clients", fmtInt(extrapolated.ObservedPeers()))
	efr := extrapolated.FreeRiders()
	add("  Number of free-riders", fmt.Sprintf("%d (%.0f %%)", efr,
		100*float64(efr)/float64(max(1, extrapolated.ObservedPeers()))))
	return t
}

// Table2 reproduces Table 2: the top ASes by hosted clients, with global
// and national shares.
func Table2(t *trace.Trace, reg *geo.Registry, topK int) *Table {
	byAS := make(map[uint32]int)
	byCountry := make(map[string]int)
	total := 0
	for i := 0; i < t.NumPeers(); i++ {
		asn := t.PeerASN(trace.PeerID(i))
		if asn == 0 {
			continue
		}
		byAS[asn]++
		byCountry[t.PeerCountry(trace.PeerID(i))]++
		total++
	}
	type asCount struct {
		asn uint32
		n   int
	}
	list := make([]asCount, 0, len(byAS))
	for asn, n := range byAS {
		list = append(list, asCount{asn, n})
	}
	slices.SortFunc(list, func(a, b asCount) int {
		if a.n != b.n {
			return cmp.Compare(b.n, a.n)
		}
		return cmp.Compare(a.asn, b.asn)
	})
	if topK > len(list) {
		topK = len(list)
	}
	out := &Table{
		ID:     "table2",
		Title:  fmt.Sprintf("Top %d autonomous systems by hosted clients", topK),
		Header: []string{"AS", "Global", "National", "Name"},
	}
	for _, ac := range list[:topK] {
		loc, _ := reg.LookupASN(ac.asn)
		national := byCountry[loc.Country]
		name := reg.ASName(ac.asn)
		out.Rows = append(out.Rows, []string{
			fmtInt(int(ac.asn)),
			fmtPct(float64(ac.n) / float64(max(1, total))),
			fmtPct(float64(ac.n) / float64(max(1, national))),
			name,
		})
	}
	return out
}

// Fig1 reproduces Figure 1: clients and files successfully scanned per
// day over the measurement period.
func Fig1ClientsFilesPerDay(t *trace.Trace) *Figure {
	st := t.Store()
	var days, clients, files []float64
	for di := 0; di < st.NumDays(); di++ {
		sn := st.Snap(di)
		days = append(days, float64(sn.Day))
		clients = append(clients, float64(sn.ObservedRows()))
		files = append(files, float64(sn.NNZ()))
	}
	return &Figure{
		ID: "fig01", Title: "Clients and shared files scanned per day",
		XLabel: "day", YLabel: "count",
		Series: []Series{
			{Label: "clients", X: days, Y: clients},
			{Label: "files", X: days, Y: files},
		},
	}
}

// Fig2 reproduces Figure 2: newly discovered and cumulative distinct
// files over the crawl. Each day's distinct file list is an independent
// pool job over the packed rows (no cache hydration); only the cheap
// fold against the global seen set — inherently sequential in day order
// — stays serial, so the counts match the serial scan exactly.
func Fig2NewFiles(t *trace.Trace, pool *runner.Pool) *Figure {
	st := t.Store()
	dayLists := runner.Collect(pool, st.NumDays(), func(di int) []trace.FileID {
		sn := st.Snap(di)
		mark := make([]bool, st.NumVals())
		var list []trace.FileID
		sn.ForEachRow(func(_ trace.PeerID, row []trace.FileID) {
			for _, f := range row {
				if !mark[f] {
					mark[f] = true
					list = append(list, f)
				}
			}
		})
		return list
	})
	seen := make([]bool, st.NumVals())
	total := 0
	var days, newFiles, totals []float64
	for di, list := range dayLists {
		newToday := 0
		for _, f := range list {
			if !seen[f] {
				seen[f] = true
				newToday++
			}
		}
		total += newToday
		days = append(days, float64(st.Snap(di).Day))
		newFiles = append(newFiles, float64(newToday))
		totals = append(totals, float64(total))
	}
	return &Figure{
		ID: "fig02", Title: "Files discovered during the trace",
		XLabel: "day", YLabel: "files",
		Series: []Series{
			{Label: "new files", X: days, Y: newFiles},
			{Label: "total files", X: days, Y: totals},
		},
	}
}

// Fig3 reproduces Figure 3: files and non-empty caches per day after
// filtering and extrapolation — the data used to pick the analysis
// window. Days count in parallel; RowLen never decodes a row.
func Fig3ExtrapolatedCoverage(t *trace.Trace, pool *runner.Pool) *Figure {
	st := t.Store()
	perDay := runner.Collect(pool, st.NumDays(), func(di int) int {
		sn := st.Snap(di)
		ne := 0
		for pid := 0; pid < sn.NumRows(); pid++ {
			if sn.RowLen(trace.PeerID(pid)) > 0 {
				ne++
			}
		}
		return ne
	})
	var days, files, nonEmpty []float64
	for di, ne := range perDay {
		sn := st.Snap(di)
		days = append(days, float64(sn.Day))
		files = append(files, float64(sn.NNZ()))
		nonEmpty = append(nonEmpty, float64(ne))
	}
	return &Figure{
		ID: "fig03", Title: "Files and non-empty caches per day (extrapolated)",
		XLabel: "day", YLabel: "count",
		Series: []Series{
			{Label: "files per day", X: days, Y: files},
			{Label: "non-empty caches", X: days, Y: nonEmpty},
		},
	}
}

// Fig4 reproduces Figure 4: the distribution of clients per country.
func Fig4Countries(t *trace.Trace, topK int) *Figure {
	counts := make(map[string]int)
	total := 0
	for i := 0; i < t.NumPeers(); i++ {
		c := t.PeerCountry(trace.PeerID(i))
		if c == "" {
			continue
		}
		counts[c]++
		total++
	}
	type cc struct {
		code string
		n    int
	}
	list := make([]cc, 0, len(counts))
	for code, n := range counts {
		list = append(list, cc{code, n})
	}
	slices.SortFunc(list, func(a, b cc) int {
		if a.n != b.n {
			return cmp.Compare(b.n, a.n)
		}
		return cmp.Compare(a.code, b.code)
	})
	fig := &Figure{
		ID: "fig04", Title: "Distribution of clients per country",
		XLabel: "country rank", YLabel: "fraction of clients",
	}
	var xs, ys []float64
	var labels []string
	other := 0.0
	for i, c := range list {
		frac := float64(c.n) / float64(max(1, total))
		if i < topK {
			xs = append(xs, float64(i+1))
			ys = append(ys, frac)
			labels = append(labels, c.code)
		} else {
			other += frac
		}
	}
	if other > 0 {
		xs = append(xs, float64(len(xs)+1))
		ys = append(ys, other)
		labels = append(labels, "Others")
	}
	for i := range xs {
		fig.Series = append(fig.Series, Series{Label: labels[i], X: xs[i : i+1], Y: ys[i : i+1]})
	}
	return fig
}

// Fig5 reproduces Figure 5: the distribution of file replication per file
// rank (log-log) for a handful of days. One pool job per day; the
// per-day replica counts come from ValueCounts, so no per-day inverted
// index is built or pinned.
func Fig5Replication(t *trace.Trace, days []int, pool *runner.Pool) *Figure {
	fig := &Figure{
		ID: "fig05", Title: "File replication per rank",
		XLabel: "file rank", YLabel: "sources per file",
		LogX: true, LogY: true,
	}
	st := t.Store()
	series := runner.Collect(pool, len(days), func(i int) *Series {
		day := days[i]
		sn := st.ByDay(day)
		if sn == nil {
			return nil
		}
		counts := sn.ValueCounts()
		var sources []int
		for _, n := range counts {
			if n > 0 {
				sources = append(sources, int(n))
			}
		}
		slices.SortFunc(sources, func(a, b int) int { return cmp.Compare(b, a) })
		// Subsample log-spaced ranks to keep series compact.
		var xs, ys []float64
		for rank := 1; rank <= len(sources); rank = nextLogRank(rank) {
			xs = append(xs, float64(rank))
			ys = append(ys, float64(sources[rank-1]))
		}
		return &Series{
			Label: fmt.Sprintf("day %d (%d files)", day, len(sources)),
			X:     xs, Y: ys,
		}
	})
	for _, s := range series {
		if s != nil {
			fig.Series = append(fig.Series, *s)
		}
	}
	return fig
}

func nextLogRank(rank int) int {
	step := rank / 10
	if step < 1 {
		step = 1
	}
	return rank + step
}

// Fig6 reproduces Figure 6: the cumulative distribution of file sizes for
// different popularity thresholds. Popularity comes from the store's
// incremental aggregate; each threshold's CDF is an independent pool job.
func Fig6FileSizes(t *trace.Trace, popThresholds []int, pool *runner.Pool) *Figure {
	sources := t.SourcesPerFile()
	fig := &Figure{
		ID: "fig06", Title: "Cumulative distribution of file sizes",
		XLabel: "file size (KB)", YLabel: "proportion of files (CDF)",
		LogX: true,
	}
	grid := stats.LogGrid(1, 2e6, 60) // 1 KB .. 2 GB
	series := runner.Collect(pool, len(popThresholds), func(i int) *Series {
		minPop := popThresholds[i]
		cdf := &stats.CDF{}
		for fid, n := range sources {
			if n >= minPop {
				cdf.Add(float64(t.FileSize(trace.FileID(fid))) / 1024)
			}
		}
		if cdf.Len() == 0 {
			return nil
		}
		return &Series{
			Label: fmt.Sprintf("popularity >= %d (%d files)", minPop, cdf.Len()),
			X:     grid, Y: cdf.Points(grid),
		}
	})
	for _, s := range series {
		if s != nil {
			fig.Series = append(fig.Series, *s)
		}
	}
	return fig
}

// fig7Chunk is the row-range granularity of the contribution reduction.
const fig7Chunk = 8192

// Fig7 reproduces Figure 7: files and disk space shared per client, with
// and without free-riders. Contiguous peer ranges reduce into private
// CDFs on the pool and merge in range order; the CDF is a multiset, so
// the merged distribution is exactly the serial one.
func Fig7Contribution(t *trace.Trace, pool *runner.Pool) *Figure {
	caches := t.AggregateCaches()
	observed := t.Store().ObservedRows()
	type chunkCDFs struct {
		filesAll, filesSharers, spaceAll, spaceSharers stats.CDF
	}
	nChunks := (t.NumPeers() + fig7Chunk - 1) / fig7Chunk
	chunks := runner.Collect(pool, nChunks, func(ci int) *chunkCDFs {
		lo := ci * fig7Chunk
		hi := min(lo+fig7Chunk, t.NumPeers())
		out := &chunkCDFs{}
		for pid := lo; pid < hi; pid++ {
			if !observed[pid] {
				continue
			}
			n := len(caches[pid])
			var bytes int64
			for _, f := range caches[pid] {
				bytes += t.FileSize(f)
			}
			gb := float64(bytes) / (1 << 30)
			out.filesAll.Add(float64(n))
			out.spaceAll.Add(gb)
			if n > 0 {
				out.filesSharers.Add(float64(n))
				out.spaceSharers.Add(gb)
			}
		}
		return out
	})
	var filesAll, filesSharers, spaceAll, spaceSharers stats.CDF
	for _, c := range chunks {
		filesAll.Merge(&c.filesAll)
		filesSharers.Merge(&c.filesSharers)
		spaceAll.Merge(&c.spaceAll)
		spaceSharers.Merge(&c.spaceSharers)
	}
	fileGrid := stats.LogGrid(1, 1e5, 40)
	spaceGrid := stats.LogGrid(0.01, 1000, 40)
	return &Figure{
		ID: "fig07", Title: "Files and disk space shared per client",
		XLabel: "shared files / shared space (GB)", YLabel: "proportion of clients (CDF)",
		LogX: true,
		Series: []Series{
			{Label: "files (full)", X: fileGrid, Y: filesAll.Points(fileGrid)},
			{Label: "files (free-riders excluded)", X: fileGrid, Y: filesSharers.Points(fileGrid)},
			{Label: "space GB (full)", X: spaceGrid, Y: spaceAll.Points(spaceGrid)},
			{Label: "space GB (free-riders excluded)", X: spaceGrid, Y: spaceSharers.Points(spaceGrid)},
		},
	}
}

// Fig8 reproduces Figure 8: the spread (fraction of clients sharing) of
// the most popular files over time. Days count in parallel off
// ValueCounts — at a million peers the old per-day inverted indexes were
// the suite's largest resident cost.
func Fig8Spread(t *trace.Trace, topK int, pool *runner.Pool) *Figure {
	top := t.TopFiles(topK)
	clients := float64(max(1, t.ObservedPeers()))
	st := t.Store()
	fig := &Figure{
		ID: "fig08", Title: fmt.Sprintf("Spread of the %d most popular files", topK),
		XLabel: "day", YLabel: "spread (fraction of clients)",
	}
	perDay := runner.Collect(pool, st.NumDays(), func(di int) []int32 {
		counts := st.Snap(di).ValueCounts()
		dayCounts := make([]int32, len(top))
		for i, fid := range top {
			dayCounts[i] = counts[fid]
		}
		return dayCounts
	})
	for rank := range top {
		var xs, ys []float64
		for di := 0; di < st.NumDays(); di++ {
			xs = append(xs, float64(st.Snap(di).Day))
			ys = append(ys, float64(perDay[di][rank])/clients)
		}
		fig.Series = append(fig.Series, Series{
			Label: fmt.Sprintf("#%d", rank+1), X: xs, Y: ys,
		})
	}
	return fig
}

// FigRankEvolution reproduces Figures 9 and 10: the popularity rank over
// time of the files that were the top-K on a reference day. The days
// rank in parallel off transient ValueCounts; since only the K tracked
// files need ranks, each day counts the files ahead of them in the
// (count desc, fid asc) order instead of sorting the whole catalogue —
// the same total order the full sort used, so ranks are identical.
func FigRankEvolution(id string, t *trace.Trace, referenceDay, topK int, pool *runner.Pool) *Figure {
	st := t.Store()
	ref := st.ByDay(referenceDay)
	fig := &Figure{
		ID: id, Title: fmt.Sprintf("Rank evolution of day-%d top %d", referenceDay, topK),
		XLabel: "day", YLabel: "rank",
	}
	if ref == nil {
		return fig
	}
	// Top-K of the reference day by (count desc, fid asc).
	refCounts := ref.ValueCounts()
	type fc struct {
		fid trace.FileID
		n   int32
	}
	var tops []fc
	for f, n := range refCounts {
		if n == 0 {
			continue
		}
		c := fc{trace.FileID(f), n}
		i := len(tops)
		for i > 0 && (tops[i-1].n < c.n || (tops[i-1].n == c.n && tops[i-1].fid > c.fid)) {
			i--
		}
		if i >= topK {
			continue
		}
		tops = append(tops, fc{})
		copy(tops[i+1:], tops[i:])
		tops[i] = c
		if len(tops) > topK {
			tops = tops[:topK]
		}
	}
	// Per-day rank of each tracked file: 1 + files strictly ahead of it.
	perDay := runner.Collect(pool, st.NumDays(), func(di int) []int {
		counts := st.Snap(di).ValueCounts()
		ranks := make([]int, len(tops))
		for ti, top := range tops {
			c := counts[top.fid]
			if c == 0 {
				continue // unseen that day: rank stays 0
			}
			rank := 1
			for f, n := range counts {
				if n > c || (n == c && trace.FileID(f) < top.fid) {
					rank++
				}
			}
			ranks[ti] = rank
		}
		return ranks
	})
	for ti := range tops {
		var xs, ys []float64
		for di := 0; di < st.NumDays(); di++ {
			r := perDay[di][ti]
			if r == 0 {
				continue // unseen that day
			}
			xs = append(xs, float64(st.Snap(di).Day))
			ys = append(ys, float64(r))
		}
		fig.Series = append(fig.Series, Series{
			Label: fmt.Sprintf("#%d", ti+1), X: xs, Y: ys,
		})
	}
	return fig
}

// FigHomeConcentration reproduces Figures 11 (country) and 12 (AS): the
// CDF over files of the fraction of sources located in the file's home
// country/AS, split by average popularity thresholds. The home location
// is the one hosting the most sources. Average popularity is distinct
// sources divided by days seen, as in the paper.
func FigHomeConcentration(id string, t *trace.Trace, byAS bool, popLevels []float64, pool *runner.Pool) *Figure {
	// The distinct (file, peer) source pairs over the whole trace are
	// exactly the aggregate snapshot; its inverted index lists each
	// file's sources directly, replacing the seen-pair map the legacy
	// implementation deduplicated day by day.
	locOf := peerLocations(t, byAS)
	st := t.Store()
	iv := st.Aggregate().Inverted()
	daysSeen := t.DaysSeenPerFile()

	// Per file: total distinct sources, and the count in the dominant
	// location. File ranges fill disjoint slots of the shared vectors on
	// the pool, each range with its private tally map.
	sources := make([]int32, st.NumVals())
	mainLoc := make([]int32, st.NumVals())
	nRanges := fileRanges(st.NumVals())
	runner.Collect(pool, nRanges, func(ri int) struct{} {
		lo, hi := fileRange(ri, st.NumVals())
		locCount := make(map[uint64]int32)
		for f := lo; f < hi; f++ {
			holders := iv.Holders(trace.FileID(f))
			if len(holders) == 0 {
				continue
			}
			sources[f] = int32(len(holders))
			clear(locCount)
			var maxN int32
			for _, pid := range holders {
				locCount[locOf[pid]]++
				if n := locCount[locOf[pid]]; n > maxN {
					maxN = n
				}
			}
			mainLoc[f] = maxN
		}
		return struct{}{}
	})

	what := "country"
	if byAS {
		what = "autonomous system"
	}
	fig := &Figure{
		ID: id, Title: fmt.Sprintf("Distribution of files by share of sources in the main %s", what),
		XLabel: "proportion of sources in main " + what + " (%)",
		YLabel: "proportion of files (CDF)",
	}
	grid := stats.LinGrid(0, 100, 51)
	series := runner.Collect(pool, len(popLevels), func(i int) *Series {
		level := popLevels[i]
		cdf := &stats.CDF{}
		for f := 0; f < st.NumVals(); f++ {
			if sources[f] == 0 || daysSeen[f] == 0 {
				continue
			}
			avgPop := float64(sources[f]) / float64(daysSeen[f])
			if avgPop < level {
				continue
			}
			cdf.Add(100 * float64(mainLoc[f]) / float64(sources[f]))
		}
		if cdf.Len() == 0 {
			return nil
		}
		return &Series{
			Label: fmt.Sprintf("avg popularity >= %g (%d files)", level, cdf.Len()),
			X:     grid, Y: cdf.Points(grid),
		}
	})
	for _, s := range series {
		if s != nil {
			fig.Series = append(fig.Series, *s)
		}
	}
	return fig
}

// peerLocations maps every peer to a packed location key: the ASN, or
// the country code packed into a uint64 (ISO codes are two bytes, far
// under the eight that fit). Grouping by packed key tallies exactly like
// grouping by the string it encodes, without a string allocation per
// peer at million-peer scale.
func peerLocations(t *trace.Trace, byAS bool) []uint64 {
	locOf := make([]uint64, t.NumPeers())
	for pid := range locOf {
		if byAS {
			locOf[pid] = uint64(t.PeerASN(trace.PeerID(pid)))
		} else {
			c := t.PeerCountry(trace.PeerID(pid))
			var key uint64
			for i := 0; i < len(c) && i < 8; i++ {
				key = key<<8 | uint64(c[i])
			}
			locOf[pid] = key
		}
	}
	return locOf
}

// fileRangeChunk is the file-range granularity of the per-file
// reductions (home concentration, locality).
const fileRangeChunk = 16384

func fileRanges(numVals int) int {
	return (numVals + fileRangeChunk - 1) / fileRangeChunk
}

func fileRange(ri, numVals int) (lo, hi int) {
	lo = ri * fileRangeChunk
	hi = min(lo+fileRangeChunk, numVals)
	return lo, hi
}
