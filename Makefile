GO ?= go

.PHONY: build test race vet lint memlat fuzz-smoke bench bench-engine bench-quick bench-parallel bench-guard bench-guard-parallel bench-profile bench-repo bench-compare bench-smoke replay-smoke decision-smoke serve-smoke check-smoke check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-check the concurrency-bearing code: the parallel experiment runner
# and everything it drives. Engines are single-threaded, so a race here
# means experiment isolation is broken.
race:
	$(GO) test -race ./internal/... .

vet:
	$(GO) vet ./...

# Minimal lint: vet plus a gofmt cleanliness check. Deliberately no
# third-party linters — the build must work with nothing but the Go
# toolchain (no network, no staticcheck install). The two cross-compiles
# cover what the host's own build cannot: vet's asmdecl check of the arm64
# prefetch stub against its Go prototype (the amd64 one is checked by the
# plain vet on an amd64 host, and vice versa), and a build for an
# architecture that gets the empty fallback.
lint: vet
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	GOARCH=amd64 $(GO) vet ./internal/prefetch
	GOARCH=arm64 $(GO) vet ./internal/prefetch
	GOARCH=riscv64 $(GO) build ./...

# Pointer-chase latency of this host's memory hierarchy (~30 s, 128 MB
# peak): what an unoverlapped first touch costs at each level.
memlat:
	$(GO) run ./tools/memlat

# Native fuzzing smoke (~210 s): the timing wheel against a sorted (time, seq)
# model, the intrusive node queue against a slice (interleaved with
# scheduling its nodes and queueing them again once fired), the packed
# congestion-table entry against the three-field one it
# replaced, the open-addressed flowlet table against its map model (any size,
# either gap mode), the overlay header's bit-packing both ways, the hosts'
# port table against a Go map, a host NIC that folds a flow's backlog into
# super-packets against a plain link queueing every packet (arrivals, drops
# and the queue audit), tcp's span set (every SACK block's source)
# against a byte map, the sink-file reader against the writer (whatever it
# reads must re-encode to bytes that read back equal), and the replay-trace
# reader on forged and damaged binary input (an error, never a panic). Their
# seed corpora already run under plain `go test`; this lets the mutator look
# past them. One target per invocation is a go test rule.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzWheelMatchesHeap -fuzztime 20s ./internal/sim
	$(GO) test -run '^$$' -fuzz FuzzQueueMatchesSlice -fuzztime 20s ./internal/sim
	$(GO) test -run '^$$' -fuzz FuzzMetricAgePacking -fuzztime 20s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzFlowletTableMatchesModel -fuzztime 20s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzHeaderRoundTrip -fuzztime 20s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzPortTableMatchesMap -fuzztime 20s ./internal/fabric
	$(GO) test -run '^$$' -fuzz FuzzHostQueueMatchesLink -fuzztime 20s ./internal/fabric
	$(GO) test -run '^$$' -fuzz FuzzSpanSetMatchesModel -fuzztime 20s ./internal/tcp
	$(GO) test -run '^$$' -fuzz FuzzReadSinkFile -fuzztime 20s ./internal/telemetry
	$(GO) test -run '^$$' -fuzz FuzzReplayRead -fuzztime 20s ./internal/replay

# Run-audit smoke (~6 s): a short FCT run, a small Incast, whose hot access
# port builds the deepest queue of any harness, and a 40G run of the scale
# cell's shape, where host NICs back up deepest, each under -check (flowlet
# tables, link queues and host packet conservation at every sweep, completed
# flow sizes, no packet or frame group left and every packet accounted for
# at drain); congasim exits 1 naming the first failure.
check-smoke:
	$(GO) build -o /tmp/congasim ./cmd/congasim
	/tmp/congasim -check -duration 10ms -maxflows 300 -minrto 10ms
	/tmp/congasim -mode incast -check -fanout 16 -reqmb 4 -minrto 1ms
	/tmp/congasim -check -leaves 32 -hosts 4 -spines 4 -links 2 -access 40 -fabric 40 -duration 2ms -maxflows 300 -minrto 10ms

# Full paper-artifact benchmarks (minutes).
bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# Fast engine micro-benchmark (seconds) for hot-path iterations.
bench-engine:
	$(GO) test -bench BenchmarkEngineRaw -run '^$$' .

# Quick smoke benchmark for CI and pre-commit: the engine hot path and the
# idle fabric (tickers only, every event brought down by the wheel's
# re-anchor path) at fixed iteration counts (so ns/op is stable enough for
# the benchguard regression gate), one full figure experiment, and one
# large-fabric scale cell (64 leaves, ~17M events) at a single iteration.
# Catches gross perf or allocation regressions in about a minute without the
# full artifact sweep.
bench-quick:
	$(GO) test -bench 'BenchmarkEngineRaw$$' -benchtime 200000x -run '^$$' .
	$(GO) test -bench 'BenchmarkIdleFabric8Leaves$$' -benchtime 20000x -run '^$$' .
	$(GO) test -bench 'BenchmarkFig09Enterprise$$' -benchtime 1x -run '^$$' .
	$(GO) test -bench 'BenchmarkScale64Leaves40G$$' -benchtime 1x -run '^$$' .

# Space-parallel scale benchmarks: the largest 40G cell sequential and at
# 2/4/8 domains. events/op is deterministic per domain count; the ns/op
# ratios are the measured cost of the space-parallel engine.
bench-parallel:
	$(GO) test -bench 'BenchmarkScale256Leaves40G(Parallel[248])?$$' -benchtime 1x -run '^$$' .

# Gate bench-quick output against the recorded baseline: ns/op (15%) on the
# engine micro-bench and the idle fabric, events/op (exact) and allocs/op
# (10%) on every benchmark with a baseline entry (CI runs this on every PR;
# >15% ns/op regression on either gated cell fails the build).
bench-guard:
	$(MAKE) bench-quick | tee bench-quick.txt
	$(GO) run ./tools/benchguard -baseline BENCH_PR26.json -max-regress 0.15 \
		-ns-benches 'BenchmarkEngineRaw,BenchmarkIdleFabric8Leaves' \
		-require 'BenchmarkEngineRaw,BenchmarkFig09Enterprise,BenchmarkIdleFabric8Leaves' bench-quick.txt

# Gate the space-parallel scale cells: events/op exact per domain count,
# which pins determinism. No speedup is gated: no recorded baseline has
# shown a domain count faster than sequential (DESIGN.md §3.6).
bench-guard-parallel:
	$(MAKE) bench-parallel | tee bench-parallel.txt
	$(GO) run ./tools/benchguard -baseline BENCH_PR26.json \
		-require 'BenchmarkScale256Leaves40G,BenchmarkScale256Leaves40GParallel2,BenchmarkScale256Leaves40GParallel4,BenchmarkScale256Leaves40GParallel8' \
		bench-parallel.txt

# One Fig09 run under the CPU profiler (~0.5 s of profiled simulation).
# CI uploads fig09.cpu.prof as an artifact so a perf regression flagged by
# bench-guard comes with the profile that explains it.
bench-profile:
	$(GO) test -bench 'BenchmarkFig09Enterprise$$' -benchtime 1x -run '^$$' \
		-cpuprofile fig09.cpu.prof .

# The repository benchmark (BENCHMARK.json, bench/README.md): one timed set
# of every workload, each in its own child process (~2.5 min), written to
# bench/out/report.json.
bench-repo:
	$(GO) run ./bench -out bench/out/report.json

# Compare two report files against the end-to-end bounds:
# make bench-compare A=before.json B=after.json
bench-compare:
	$(GO) run ./bench -compare $(A) $(B)

# Benchmark harness smoke (~45 s): one short scale256 run, the same cell on
# two partition domains (the mailbox/Exchange path end to end) and one short
# observed run (every probe on, NDJSON flushed) whose result lines (the
# last ones) must each report a correct run.
bench-smoke:
	$(GO) run ./bench -workload scale256 -seconds 3 | tail -n 1 | grep -q '"correct":true'
	$(GO) run ./bench -workload scale256_p2 -seconds 3 | tail -n 1 | grep -q '"correct":true'
	$(GO) run ./bench -workload fig09_observed -seconds 3 | tail -n 1 | grep -q '"correct":true'

# End-to-end record/replay smoke (~1 min): assert that a closed-loop mode
# refuses -record, record a workload trace with congasim, verify congatrace
# reads its header back, replay the identical arrival sequence into CONGA,
# then run the paired ECMP-vs-every-scheme comparison with bootstrap CIs at
# -quick scale. CI uploads the recorded trace as an artifact.
replay-smoke:
	$(GO) build -o /tmp/congasim ./cmd/congasim
	! /tmp/congasim -mode incast -record replay-smoke-incast.trace.gz
	/tmp/congasim -scheme ecmp -leaves 2 -spines 2 -hosts 8 -duration 10ms \
		-maxflows 300 -minrto 10ms -record replay-smoke.trace.gz
	$(GO) run ./cmd/congatrace -read replay-smoke.trace.gz
	/tmp/congasim -scheme conga -leaves 2 -spines 2 -hosts 8 -minrto 10ms \
		-replay replay-smoke.trace.gz
	$(GO) run ./cmd/congabench -fig replay -quick

# End-to-end decision-plane smoke (~30 s): a short CONGA run with one
# failed link and -decisions on, then assert the audit trail and path
# matrix sinks are non-empty, summarize the trail with congatrace, and
# render the path-utilization heatmap. CI uploads the sinks and figure.
decision-smoke:
	$(GO) build -o /tmp/congasim ./cmd/congasim
	/tmp/congasim -scheme conga -duration 20ms -maxflows 500 -minrto 10ms \
		-fail 0,1,0 -telemetry decision-smoke.tel -decisions
	test -s decision-smoke.tel/decisions.ndjson
	test -s decision-smoke.tel/paths.ndjson
	$(GO) run ./cmd/congatrace -read decision-smoke.tel/decisions.ndjson
	$(GO) run ./cmd/congaplot -heatmap -dir decision-smoke.tel -out decision-heatmap.svg
	test -s decision-heatmap.svg

# Live-plane smoke (~15 s): serve a short run, wait until it has finished
# (the -linger line, so its final snapshot is up), then list and draw its
# queue series through congaplot -url, which decodes the sink NDJSON the
# endpoints serve. CI uploads the figure.
serve-smoke:
	$(GO) build -o /tmp/congasim ./cmd/congasim
	$(GO) build -o /tmp/congaplot ./cmd/congaplot
	@set -e; rm -f serve-smoke.log live.svg; \
	/tmp/congasim -serve 127.0.0.1:18089 -linger 5s -duration 20ms -queues > serve-smoke.log 2>&1 & pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true' EXIT; \
	for i in $$(seq 300); do grep -q '^run finished' serve-smoke.log && break; sleep 0.1; done; \
	cat serve-smoke.log; \
	/tmp/congaplot -url http://127.0.0.1:18089 -list; \
	/tmp/congaplot -url http://127.0.0.1:18089 -series 'queue\.' -out live.svg; \
	test -s live.svg

check: build vet test race
