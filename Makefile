GO ?= go

.PHONY: build test test-time race vet lint memlat fuzz-smoke bench-engine bench-profile bench-repo bench-compare ab bench-smoke replay-smoke decision-smoke check-smoke check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The 15 slowest top-level tests of each package, under the package's own
# time, from one uncached go test run of the whole tree; the raw events stay
# in test-time.json. Exits with go test's status.
test-time:
	@$(GO) test -count=1 -json ./... > test-time.json; status=$$?; \
	awk '/"Action":"(pass|fail)"/ && /"Elapsed":/ { match($$0, /"Package":"[^"]*"/); pkg = substr($$0, RSTART + 11, RLENGTH - 12); kind = 0; name = "-"; if (match($$0, /"Test":"[^"]*"/)) { kind = 1; name = substr($$0, RSTART + 8, RLENGTH - 9) } if (name ~ /\//) next; match($$0, /"Elapsed":[0-9.]+/); print pkg, substr($$0, RSTART + 10, RLENGTH - 10), kind, name }' test-time.json | \
	LC_ALL=C sort -k1,1 -k3,3n -k2,2nr | \
	awk '$$3 == 0 { printf "%s  %.1f s\n", $$1, $$2; n = 0; next } ++n <= 15 { printf "  %7.2f s  %s\n", $$2, $$4 }'; \
	exit $$status

# Race-check the concurrency-bearing code: the parallel experiment runner,
# the partitioned engine (plain-TCP cells on two to eight domains, the only
# kind it runs) and everything they drive.
# Engines are single-threaded, so a race here means experiment isolation is
# broken. -short skips what gives the detector nothing to check or costs
# minutes under it: the golden table's scale rows, and every root test whose
# simulations all run one engine on the test's own goroutine. The plain test
# target runs them all.
race:
	$(GO) test -race -short ./internal/... .

vet:
	$(GO) vet ./...

# Minimal lint: vet plus a gofmt cleanliness check. Deliberately no
# third-party linters — the build must work with nothing but the Go
# toolchain (no network, no staticcheck install). The two cross-compiles
# cover what the host's own build cannot: vet's asmdecl check of the arm64
# prefetch stub against its Go prototype (the amd64 one is checked by the
# plain vet on an amd64 host, and vice versa), and a build for an
# architecture that gets the empty fallback. The arm64 assembly listing of
# the root package and every package it imports must hold no fused
# multiply-add (Go may fuse x*y + z where the CPU has FMA, which amd64 builds
# never do, so a fused site would break the bit-identical results on arm64;
# an explicit float64(x*y) forbids it). Last, TestNoTestOnlyAPI (about
# a second once the build cache is warm) fails on an exported function or
# method that only tests use, on a config field that only tests set, and on
# an unexported declaration that no non-test file uses.
lint: vet
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	GOARCH=amd64 $(GO) vet ./internal/prefetch
	GOARCH=arm64 $(GO) vet ./internal/prefetch
	GOARCH=riscv64 $(GO) build ./...
	@asm=$$(GOARCH=arm64 $(GO) build -gcflags=-S -o /dev/null $$($(GO) list -deps . | grep '^conga') 2>&1) || { echo "$$asm"; exit 1; }; \
	echo "$$asm" | grep -aq TEXT || { echo "arm64 build printed no assembly listing"; exit 1; }; \
	fused=$$(echo "$$asm" | grep -aE 'FMADDD|FMSUBD|FNMADDD|FNMSUBD'); \
	if [ -n "$$fused" ]; then \
		echo "fused float ops in the arm64 build (round the product with float64(...)):"; echo "$$fused"; exit 1; \
	fi
	$(GO) test -count=1 -run '^TestNoTestOnlyAPI$$' .

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
# reads must re-encode to bytes that read back equal), the replay-trace
# reader on forged and damaged binary input (an error, never a panic), and a
# group of series on one sampling clock against per-series clocks (nil
# members and a standalone series beside the group). Their
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
	$(GO) test -run '^$$' -fuzz FuzzSeriesGroupMatchesSeries -fuzztime 20s ./internal/telemetry

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

# Fast engine micro-benchmark (seconds) for hot-path iterations. It and the
# idle-fabric benchmarks are ungated profiling entry points: timed runs are
# bench-repo's, and the golden table pins events and allocations.
bench-engine:
	$(GO) test -bench BenchmarkEngineRaw -run '^$$' .

# One Fig09 cell (CONGA, enterprise, load 0.6 on the 64-host testbed, seed 1)
# under the CPU profiler (~0.5 s of profiled simulation). CI uploads
# fig09.cpu.prof as an artifact.
bench-profile:
	$(GO) build -o /tmp/congasim ./cmd/congasim
	/tmp/congasim -scheme conga -workload enterprise -load 0.6 -leaves 2 -spines 2 -hosts 8 \
		-links 2 -access 10 -fabric 20 -duration 20ms -maxflows 250 -minrto 10ms -seed 1 \
		-cpuprofile fig09.cpu.prof

# The repository benchmark (BENCHMARK.json, bench/README.md): one timed set
# of every workload, each in its own child process (~2.5 min), written to
# bench/out/report.json.
bench-repo:
	$(GO) run ./bench -out bench/out/report.json

# Compare two report files against the end-to-end bounds:
# make bench-compare A=before.json B=after.json
bench-compare:
	$(GO) run ./bench -compare $(A) $(B)

# Paired A/B of one workload (tools/abpair): PAIRS alternating runs of the
# base and the change, every run appended to measurements/abpair.jsonl, and a
# gain / regressed / unresolved verdict per end-to-end metric.
# make ab W=incast BASE=HEAD~1        (base built from a git archive of REV)
# make ab W=scale256 OVERLAY=probe.json  (change = working tree + overlay)
PAIRS ?= 10
ab:
	$(GO) run ./tools/abpair -workload $(W) -pairs $(PAIRS) $(if $(BASE),-base $(BASE)) $(if $(OVERLAY),-overlay $(OVERLAY))

# Benchmark harness smoke (~45 s): one short scale256 run, the same cell on
# two partition domains (the mailbox/Exchange path end to end) and one short
# observed run (every probe on, NDJSON flushed) whose result lines (the
# last ones) must each report a correct run.
bench-smoke:
	$(GO) run ./bench -workload scale256 -seconds 3 | tail -n 1 | grep -q '"correct":true'
	$(GO) run ./bench -workload scale256_p2 -seconds 3 | tail -n 1 | grep -q '"correct":true'
	$(GO) run ./bench -workload fig09_observed -seconds 3 | tail -n 1 | grep -q '"correct":true'

# End-to-end record/replay smoke (~1 min): assert that a closed-loop mode
# refuses -record, record a workload trace with congasim, verify
# congaplot -summary reads its header back, replay the identical arrival sequence into CONGA,
# then run the paired ECMP-vs-every-scheme comparison with bootstrap CIs at
# -quick scale. CI uploads the recorded trace as an artifact.
replay-smoke:
	$(GO) build -o /tmp/congasim ./cmd/congasim
	! /tmp/congasim -mode incast -record replay-smoke-incast.trace.gz
	/tmp/congasim -scheme ecmp -leaves 2 -spines 2 -hosts 8 -duration 10ms \
		-maxflows 300 -minrto 10ms -record replay-smoke.trace.gz
	$(GO) run ./cmd/congaplot -summary replay-smoke.trace.gz
	/tmp/congasim -scheme conga -leaves 2 -spines 2 -hosts 8 -minrto 10ms \
		-replay replay-smoke.trace.gz
	$(GO) run ./cmd/congabench -fig replay -quick

# End-to-end decision-plane smoke (~30 s): a short CONGA run with one
# failed link and -decisions on, then assert the audit trail and path
# matrix sinks are non-empty, summarize the trail with congaplot -summary, and
# render the path-utilization heatmap. CI uploads the sinks and figure.
# Then the 32-leaf cell of check-smoke with every probe on, which drives the
# grouped samplers at multi-leaf scale: it must flush 1,344 series (queue
# and DRE on 512 fabric links, 8 congestion-table uplinks, flowlets and
# staleness on 32 leaves) and congaplot -list must read and list every one,
# with 0 points where a series took none (a leaf with no aged decisions
# leaves its staleness file empty).
decision-smoke:
	$(GO) build -o /tmp/congasim ./cmd/congasim
	/tmp/congasim -scheme conga -duration 20ms -maxflows 500 -minrto 10ms \
		-fail 0,1,0 -telemetry decision-smoke.tel -decisions
	test -s decision-smoke.tel/decisions.ndjson
	test -s decision-smoke.tel/paths.ndjson
	$(GO) run ./cmd/congaplot -summary decision-smoke.tel/decisions.ndjson
	$(GO) run ./cmd/congaplot -heatmap -dir decision-smoke.tel -out decision-heatmap.svg
	test -s decision-heatmap.svg
	rm -rf decision-smoke32.tel
	/tmp/congasim -leaves 32 -hosts 4 -spines 4 -links 2 -access 40 -fabric 40 -duration 2ms \
		-maxflows 300 -minrto 10ms -telemetry decision-smoke32.tel -decisions
	test $$(ls decision-smoke32.tel | grep -c '^series_') -eq 1344
	test $$($(GO) run ./cmd/congaplot -dir decision-smoke32.tel -list | grep -c ' points  unit=') -eq 1344

check: build vet test race
