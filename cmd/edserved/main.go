// Command edserved serves the first-tier eDonkey protocol over real TCP
// at production load. It freezes one day of a population — either a
// synthetic world built in-process or a captured .edt/.gob trace — into
// an immutable, lock-free serving snapshot (internal/serve) and answers
// login, nickname-sweep, keyword-search and source queries on it until
// terminated, draining gracefully on SIGTERM/SIGINT so in-flight
// replies complete.
//
// Usage:
//
//	edserved -addr :4661 [-peers 20000] [-seed 1] [-day 0] [-maxconns 4096] [-stats 10s]
//	edserved -addr :4661 -trace capture.edt [-day 0]
//
// The -stats heartbeat prints active/accepted connections, the interval
// qps and cumulative per-class counts.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"edonkey/internal/serve"
	"edonkey/internal/trace"
	"edonkey/internal/workload"
)

func main() {
	var (
		addr      = flag.String("addr", ":4661", "TCP listen address")
		tracePath = flag.String("trace", "", "serve a captured trace file instead of a synthetic world")
		peers     = flag.Int("peers", 20000, "synthetic world size (ignored with -trace)")
		seed      = flag.Uint64("seed", 1, "synthetic world seed")
		day       = flag.Int("day", 0, "day to freeze and serve")
		maxConns  = flag.Int("maxconns", serve.DefaultMaxConns, "concurrent connection cap")
		statsIvl  = flag.Duration("stats", 10*time.Second, "heartbeat interval (0 = silent)")
		grace     = flag.Duration("grace", 10*time.Second, "drain deadline after SIGTERM")
	)
	flag.Parse()
	if err := run(*addr, *tracePath, *peers, *seed, *day, *maxConns, *statsIvl, *grace); err != nil {
		fmt.Fprintln(os.Stderr, "edserved:", err)
		os.Exit(1)
	}
}

func run(addr, tracePath string, peers int, seed uint64, day, maxConns int, statsIvl, grace time.Duration) error {
	snap, err := buildSnapshot(tracePath, peers, seed, day)
	if err != nil {
		return err
	}
	fmt.Printf("edserved: serving day %d: %d users, %d published files\n",
		day, snap.NumUsers(), snap.NumFiles())

	srv := serve.New(snap, serve.Config{MaxConns: maxConns})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Printf("edserved: listening on %s (maxconns=%d)\n", ln.Addr(), maxConns)

	if statsIvl > 0 {
		go heartbeat(srv, statsIvl)
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		fmt.Printf("edserved: %v, draining (grace %v)\n", sig, grace)
		ctx, cancel := context.WithTimeout(context.Background(), grace)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Printf("edserved: forced drain: %v\n", err)
		}
		<-errc // the Serve goroutine exits with ErrServerClosed
		st := srv.Stats()
		fmt.Printf("edserved: served %d queries over %d connections\n", st.Queries, st.Accepted)
		return nil
	}
}

// buildSnapshot loads a trace day or builds and steps a synthetic world
// to the requested day.
func buildSnapshot(tracePath string, peers int, seed uint64, day int) (*serve.Snapshot, error) {
	if tracePath != "" {
		tr, err := trace.ReadFile(tracePath)
		if err != nil {
			return nil, err
		}
		if day < 0 || day >= len(tr.Days) {
			return nil, fmt.Errorf("trace has %d days, -day %d out of range", len(tr.Days), day)
		}
		return serve.SnapshotFromTrace(tr, day), nil
	}
	wcfg := workload.DefaultConfig()
	wcfg.Seed = seed
	wcfg.Peers = peers
	wcfg.Days = day + 1
	wcfg.Topics = max(8, peers/20)
	wcfg.InitialFiles = 30 * peers
	wcfg.NewFilesPerDay = max(1, wcfg.InitialFiles/100)
	w, err := workload.New(wcfg)
	if err != nil {
		return nil, err
	}
	for w.Day() < day {
		w.Step()
	}
	return serve.SnapshotFromWorld(w, day), nil
}

// heartbeat prints the periodic stats line: connection gauges, the
// interval's query rate and cumulative per-class counters.
func heartbeat(srv *serve.Server, every time.Duration) {
	prev := srv.Stats()
	for range time.Tick(every) {
		st := srv.Stats()
		qps := float64(st.Queries-prev.Queries) / every.Seconds()
		fmt.Printf("edserved: conns=%d accepted=%d qps=%.0f total=%d login=%d users=%d search=%d sources=%d offers=%d rejects=%d\n",
			st.Active, st.Accepted, qps, st.Queries,
			st.Logins, st.UserSearches, st.FileSearches, st.Sources, st.Offers, st.Rejects)
		prev = st
	}
}
