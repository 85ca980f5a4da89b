GO ?= go

.PHONY: verify lint vet build test race bench-check bench benchjson cachejson servejson clusterjson eventsjson multistackjson dsejson dsejson-large dsejson-xl fuzz golden golden-check clean

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

# bench runs the reproduction benchmarks at 1 and 4 logical CPUs so the
# parallel-sweep speedup metric is visible. benchtime must exceed 1x:
# at 1x the printed result is the b.N=1 discovery run, which executes
# before the per-variant GOMAXPROCS takes effect.
bench:
	$(GO) test -bench=. -benchtime=3x -cpu=1,4 -run='^$$' .

# benchjson regenerates BENCH_parallel.json (sequential vs parallel
# wall clock per experiment).
benchjson:
	$(GO) run ./cmd/pimbench -benchjson BENCH_parallel.json

# cachejson regenerates BENCH_cache.json (cold vs warm simulation-cache
# wall clock, Figs. 8-10 + the pimtrain -config all workload). The tool
# exits non-zero if any warm table differs from its cold run or the
# aggregate warm speedup is below the -cachemin floor.
cachejson:
	$(GO) run ./cmd/pimbench -cachejson BENCH_cache.json

# servejson regenerates BENCH_serve.json: the pimserve selfcheck
# replays the committed open-loop Poisson scenario (64 requests over 8
# cells) against an in-process server and fails on any error,
# non-byte-identical result, dedup ratio below 4x, or unclean drain.
servejson:
	$(GO) run ./cmd/pimserve -selfcheck -scenario testdata/scenarios/selfcheck_poisson.json -benchout BENCH_serve.json

# clusterjson regenerates BENCH_cluster.json: 3 pimserve replicas plus
# the consistent-hash router in-process, three client waves with one
# replica drained, killed and recovered mid-load. Fails on any client
# error, a non-byte-identical routed result, cluster dedup below the
# single-node baseline, or a kill path that never rehashed / retried /
# cross-adopted a result from a peer.
clusterjson:
	$(GO) run ./cmd/pimserve -clustercheck -coalesce 2ms -benchout BENCH_cluster.json

# eventsjson regenerates BENCH_events.json (closure vs typed event
# engine microbenchmark). The tool exits non-zero if the typed path
# allocates per event or its events/sec gain is below the 1.3x floor.
eventsjson:
	$(GO) run ./cmd/pimbench -eventsjson BENCH_events.json

# multistackjson regenerates BENCH_multistack.json (one engine vs 8
# per-stack shard engines over the same event volume, plus the M=1
# identity and M=2 worker-count determinism checks of the full
# pipeline). On hosts with >= 8 cores the tool exits non-zero below a
# 3x aggregate speedup; the identity/determinism gates apply everywhere.
multistackjson:
	$(GO) run ./cmd/pimbench -multistackjson BENCH_multistack.json

# dsejson is the quick optimized-vs-exhaustive DSE comparison on the
# 24-candidate paper grid. The tool exits non-zero if any winner
# diverges, under 30% of candidates are pruned, or the aggregate
# wall-clock speedup is below 1.5x.
dsejson:
	$(GO) run ./cmd/pimdse -dsejson BENCH_dse.json -grid paper

# dsejson-large regenerates the committed BENCH_dse.json on the
# 432-point interactive-DSE grid (surrogate ordering + delta replays +
# branch-and-bound vs plain exhaustive search). Gates: byte-identical
# winners for every model, >= 60% of candidates pruned, and >= 10x
# aggregate wall-clock speedup. Takes a couple of minutes — the
# exhaustive legs simulate all 2000+ (model, candidate) cells.
dsejson-large:
	$(GO) run ./cmd/pimdse -dsejson BENCH_dse.json -grid large

# dsejson-xl regenerates the committed BENCH_dse.json on the
# 2232-candidate xl grid (calibrated admissible bounds + deep delta
# checkpoints + confidence ordering vs the large-grid optimization
# level). Gates: >= 2000 candidates, >= 80% pruned, >= 2x aggregate
# speedup over the {prune, surrogate, delta} baseline, sub-second
# median per model per 100 candidates, and winners byte-identical to
# an exhaustive re-run over the winner-containing verification subset.
dsejson-xl:
	$(GO) run ./cmd/pimdse -dsejson BENCH_dse.json -grid xl

# fuzz runs the external decoders' fuzz targets for a short budget.
# Scenario front end: arbitrary bytes must parse-and-compile cleanly or
# error — never panic — and identical documents must always compile to
# identical plans. POST /v1/jobs body: never panic, and an accepted body
# keeps its job id through a re-encode. The committed corpora under
# internal/{scenario,serve}/testdata/fuzz seed the targets. Minimizing a
# new input is capped at 200 runs: the job decoder is cheap enough that
# an uncapped minimization of a long input eats the whole budget.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzParseScenario -fuzztime=20s ./internal/scenario
	$(GO) test -run='^$$' -fuzz=FuzzCompile -fuzztime=10s ./internal/scenario
	$(GO) test -run='^$$' -fuzz=FuzzJobRequest -fuzztime=15s -fuzzminimizetime=200x ./internal/serve

# golden regenerates the committed golden outputs the regression CI job
# diffs against. Run it (and review the diff) whenever an intentional
# model/simulator change moves the numbers.
golden:
	$(GO) run ./cmd/pimtrain -model VGG-19 -config all > testdata/golden/pimtrain_all.txt
	$(GO) run ./cmd/pimtrain -model VGG-19 -config hetero -stacks 2 -allreduce ring > testdata/golden/pimtrain_multistack.txt
	$(GO) run ./cmd/pimprof > testdata/golden/pimprof.txt

# golden-check fails if current tool output drifts from the goldens.
golden-check:
	@mkdir -p /tmp/heteropim-golden
	$(GO) run ./cmd/pimtrain -model VGG-19 -config all > /tmp/heteropim-golden/pimtrain_all.txt
	$(GO) run ./cmd/pimtrain -model VGG-19 -config hetero -stacks 2 -allreduce ring > /tmp/heteropim-golden/pimtrain_multistack.txt
	$(GO) run ./cmd/pimprof > /tmp/heteropim-golden/pimprof.txt
	diff -u testdata/golden/pimtrain_all.txt /tmp/heteropim-golden/pimtrain_all.txt
	diff -u testdata/golden/pimtrain_multistack.txt /tmp/heteropim-golden/pimtrain_multistack.txt
	diff -u testdata/golden/pimprof.txt /tmp/heteropim-golden/pimprof.txt

clean:
	$(GO) clean ./...
