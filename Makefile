GO ?= go

.PHONY: verify lint vet build test race bench-check bench bench-compare clusterjson fuzz golden golden-check clean

# verify is the default CI gate: static checks, a full build, the test
# suite, and the race-detector pass (the parallel experiment runner
# makes the race pass load-bearing, not optional).
verify: vet build test race

# lint is the fail-fast CI job: formatting drift and vet findings,
# no compilation of tests required.
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench-check vets the benchmark module and runs its short tests.
# bench/ is a Go module of its own, so `go test ./...` from the root
# never compiles it: a signature change to a public function it calls
# (batch.ExploreDSE, core.RunOnWithCollector, ...) would otherwise break
# the benchmark unnoticed.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test -short ./...

# bench runs the ablation benchmarks of DESIGN.md §6, the simulator's
# per-event benchmark (BenchmarkLiveRun: ns/event of live Hetero PIM
# runs) and the engine's throughput benchmark, at 1 and 4 logical CPUs.
# benchtime must exceed 1x: at 1x the printed result is the b.N=1
# discovery run, which executes before the per-variant GOMAXPROCS takes
# effect. The paper artifacts are timed by bench/run.sh (the figures
# and sweep workloads).
bench:
	$(GO) test -bench=. -benchtime=3x -cpu=1,4 -run='^$$' . ./internal/core ./internal/sim

# bench-compare runs the benchmark (bench/run.sh) on a clone of BASE
# and on the working tree, PAIRS pairs of SECONDS-second WORKLOAD runs
# on seeds 1..PAIRS, alternating which side goes first, and prints per
# BENCHMARK.json end-to-end metric each side's median and q1–q3, the
# change, the pairs won and the bound verdict. WORKLOAD=all compares
# every BENCHMARK.json workload in pairs of its own, one table each. It
# fails if any run is not correct or has failed operations.
BASE ?= HEAD
WORKLOAD ?= serve
PAIRS ?= 10
SECONDS ?= 20
bench-compare:
	$(GO) run ./cmd/benchcompare $(BASE) $(WORKLOAD) $(PAIRS) $(SECONDS)

# clusterjson regenerates BENCH_cluster.json, the serving layer's one
# acceptance check: the default 8-cell mix served by one pimserve
# replica, then by 3 replicas behind the consistent-hash router, both
# through the same three seeded client waves, with one replica drained,
# killed and recovered between the fleet's waves. Fails on any client
# error, a result not byte-identical to a direct run, a single replica
# that ran other than one simulation per distinct job, an unclean drain
# or shutdown, cluster dedup below the single-node baseline, or a kill
# path that never rehashed / retried / cross-adopted a result from a
# peer.
clusterjson:
	$(GO) run ./cmd/pimserve -clustercheck -benchout BENCH_cluster.json

# fuzz runs the external decoders' fuzz targets for a short budget.
# Scenario front end: arbitrary bytes must parse-and-compile cleanly or
# error — never panic — and identical documents must always compile to
# identical plans. POST /v1/jobs body: never panic, and an accepted body
# keeps its job id through a re-encode. POST /v1/replicas body: never
# panic, an accepted body is one JSON value naming a replica with a
# valid base URL and grows the ring by one, a rejected one leaves the
# ring as it was. Disk-cache entry: never panic,
# a miss unless schema and fingerprint match, and a hit returns exactly
# the stored result. The committed corpora under
# internal/{scenario,serve}/testdata/fuzz seed the targets. Minimizing a
# new input is capped at 200 runs: the job decoder is cheap enough that
# an uncapped minimization of a long input eats the whole budget.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzParseScenario -fuzztime=20s ./internal/scenario
	$(GO) test -run='^$$' -fuzz=FuzzCompile -fuzztime=10s ./internal/scenario
	$(GO) test -run='^$$' -fuzz=FuzzJobRequest -fuzztime=15s -fuzzminimizetime=200x ./internal/serve
	$(GO) test -run='^$$' -fuzz=FuzzReplicaAnnounce -fuzztime=10s -fuzzminimizetime=200x ./internal/cluster
	$(GO) test -run='^$$' -fuzz=FuzzDiskEntry -fuzztime=10s -fuzzminimizetime=200x ./internal/core

# golden rewrites the committed outputs under testdata/golden that
# TestGolden (part of `go test ./...`) compares byte for byte: the
# pimtrain, pimprof, pimbench -csv -ext and pimdse -dse outputs, what
# instrumented pimtrain runs print (-metrics, -advise, -schedtrace,
# -explain), the cells file, and the SHA-256 and length of four runs'
# Chrome traces (timelines.txt). Run it (and review the diff) whenever
# an intentional model/simulator change moves the numbers.
golden:
	$(GO) test -count=1 -run '^TestGolden$$' . -update

# golden-check fails if any tool output drifts from the goldens.
golden-check:
	$(GO) test -count=1 -run '^TestGolden$$' .

clean:
	$(GO) clean ./...
