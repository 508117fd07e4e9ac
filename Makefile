# Mirrors .github/workflows/ci.yml so local and CI invocations stay
# identical: `make build test lint race bench-smoke bench-harness` is
# what CI runs.

GO ?= go

.PHONY: all build test race bench-smoke bench-harness fuzz scale lint fmt clean

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The repeated runs are for the packages whose bugs depend on the
# schedule: memconn's rendezvous and the switchboard that dials through
# it, and the simulator, whose evaluation jobs reuse per-point target
# arenas that only the stream's ordering keeps apart.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=5 -cpu 1,2,4 ./internal/memconn ./internal/edonkey
	$(GO) test -race -count=3 -cpu 1,2,4 ./internal/core ./internal/runner

# The go-test benchmarks (one per table and figure, the derivation and
# overlay ablations, the codec and dial micro-benchmarks) are for
# measuring while you work; nothing parses or gates them, and this only
# checks that each still compiles and runs once. The repository's
# yardstick is bench/ — `bash bench/run.sh --workload <name> --seed 1
# --seconds 15 --trace 0`, declared in BENCHMARK.json — and the sizes in
# bytes that need no yardstick are ceiling tests under `make test`.
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
