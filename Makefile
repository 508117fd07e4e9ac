# Mirrors .github/workflows/ci.yml so local and CI invocations stay
# identical: `make build test lint race bench-smoke bench-harness` is
# what CI runs.

GO ?= go
# Benchmark iteration budget; CI overrides with 1x for the smoke run.
BENCHTIME ?= 1s
# Repetitions per benchmark; benchjson keeps the fastest, so counts > 1
# filter scheduler noise (the bench-diff gate runs with 3).
BENCHCOUNT ?= 1

# bench/bench-store pipe go test into benchjson; without pipefail a
# failed benchmark run would still exit 0 and upload a truncated JSON.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -ec

.PHONY: all build test race bench bench-store bench-diff bench-smoke bench-harness fuzz scale lint fmt clean

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The second run is for the two packages whose bugs depend on the
# schedule: memconn's rendezvous and the switchboard that dials through it.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=5 -cpu 1,2,4 ./internal/memconn ./internal/edonkey

# Full benchmark suite (slow; regenerates the paper's figures). Results
# stream to stdout as usual and the machine-readable trajectory lands in
# BENCH_store.json (op, ns/op, B/op, allocs/op, peers).
bench:
	$(GO) test -bench=. -benchtime=$(BENCHTIME) -benchmem ./... | $(GO) run ./cmd/benchjson -out BENCH_store.json

# Just the tracked store benchmarks (BenchmarkPairOverlap
# map-vs-store-vs-sharded, BenchmarkSuite, BenchmarkSuiteScale's
# crawl-scale suite at workers=1 vs the machine with its ns/figure cost,
# BenchmarkTraceIO gob-vs-edt, BenchmarkCrawlScale with its
# bytes_per_peer floor and ns/snap browse cost,
# BenchmarkRunSimParallel's sharded event loop at one worker vs the
# machine, BenchmarkSweepInterleaved's sweep scheduler with its
# ns/point cost, BenchmarkServeTCP's loopback serving path with its
# ns/query cost); same JSON artefact, much faster than `make bench`.
bench-store:
	$(GO) test -run='^$$' -bench='^(BenchmarkPairOverlap|BenchmarkSuite|BenchmarkSuiteScale|BenchmarkTraceIO|BenchmarkCrawlScale|BenchmarkRunSimParallel|BenchmarkSweepInterleaved|BenchmarkServeTCP)$$' -benchtime=$(BENCHTIME) -count=$(BENCHCOUNT) -benchmem ./... | $(GO) run ./cmd/benchjson -out BENCH_store.json

# Regression gate: rerun the tracked benchmarks and fail if any ns/op
# regressed more than 25% against the committed baseline (CI enforces
# this; refresh the baseline with `make bench-store &&
# cp BENCH_store.json BENCH_baseline.json` when a change is intentional).
# The anchor benchmark (frozen legacy gob load) normalizes machine
# speed, so the committed baseline gates runners faster or slower than
# the box that recorded it. Machine-independent byte metrics (resident
# bytes after load, on-disk file size) gate unscaled alongside ns/op.
bench-diff: BENCHCOUNT := 3
bench-diff: bench-store
	$(GO) run ./cmd/benchjson -diff BENCH_baseline.json -in BENCH_store.json -tolerance 25 -anchor 'BenchmarkTraceIO/op=load/format=gob/peers=20000' -gate-extra bytes_after_load,file-bytes,bytes_per_peer,bytes_per_peer_day,ns/snap,ns/figure,ns/point,ns/query

# CI's smoke variant: every benchmark runs exactly once.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# bench/ is a module of its own (BENCHMARK.json runs it from source), so
# `build` and `test` above neither compile nor test it: a change to an
# internal/ API it calls would break the benchmark with tier-1 green.
bench-harness:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Short fuzz budget over everything that parses bytes from outside: the
# trace readers, the general wire decoder and the server-role request
# decoder (CI runs this and caches the corpus); go's fuzz corpus lives
# under $(go env GOCACHE)/fuzz. -fuzz takes one target per run.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzReadTrace -fuzztime=10s ./internal/trace
	$(GO) test -run='^$$' -fuzz=FuzzReadMessage -fuzztime=10s ./internal/protocol
	$(GO) test -run='^$$' -fuzz=FuzzRequestDecoder -fuzztime=10s ./internal/protocol

# Scale scenario: a 100k-peer synthetic population driven through the
# semantic-search sweep — impractical before the columnar store.
scale:
	$(GO) run ./cmd/edsim -peers 100000 -days 14 -lists 5,20,50 -workers 0

# Scale scenario: a million-peer DAYS-day protocol crawl streamed to
# .edt — impractical before the cohort-streamed columnar world (the
# boxed world held every client as pointer-heavy heap). Single machine,
# roughly 10-15 minutes on one core at the default 14 days, a few GB
# resident; the heartbeat reports the resident floor as it runs. Longer
# captures (`make scale-crawl DAYS=70` is the paper's ten weeks) stream
# day by day at the same resident floor, and analyse afterwards at a
# bounded floor too via `edrepro -trace trace_1m.edt -stream`.
DAYS ?= 14
scale-crawl:
	$(GO) run ./cmd/edcrawl -peers 1000000 -days $(DAYS) -workers 0 -progress -o trace_1m.edt
	$(GO) run ./cmd/edtrace verify trace_1m.edt

lint:
	$(GO) vet ./...
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; \
	fi

fmt:
	gofmt -w .

clean:
	$(GO) clean ./...
