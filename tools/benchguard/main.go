// Command benchguard is the CI benchmark regression gate: it parses `go
// test -bench` output, looks each benchmark's baseline up in a
// BENCH_*.json record, and exits nonzero on a regression.
//
// Three metrics are gated, each with its own policy:
//
//   - ns/op      — wall-clock; allowed to drift up to -max-regress (15%).
//   - events/op  — simulation event count; must match the baseline EXACTLY.
//     Figure benchmarks run fixed seeds, so any drift means the simulation
//     itself changed behavior (the determinism guarantee broke), not that
//     the machine was slow.
//   - allocs/op  — heap allocations; allowed up to -max-alloc-regress (10%)
//     to absorb runtime/map noise while still catching real allocation
//     regressions on the packet path.
//
// Every benchmark present in the output that has a baseline entry is
// checked; -require lists benchmarks that must appear in the output (so a
// silently-skipped benchmark can't pass the gate).
//
// Usage (what `make bench-guard` and `make bench-guard-parallel` run, each
// naming the baseline the tree currently records):
//
//	make bench-quick | tee bench-quick.txt
//	go run ./tools/benchguard -baseline BENCH_PR26.json bench-quick.txt
//
// -baseline is required: a default would silently gate against whichever
// record was current when the default was written.
//
// With -update OUT.json the tool regenerates a baseline instead of gating:
// every benchmark in the output is recorded (all reported metrics, not
// just the gated three), benchmarks absent from the output are carried
// forward from -baseline unchanged, and an environment block (goos,
// goarch, cpu from the output header, plus the recording command) is
// embedded so a future reader knows what machine the numbers mean on.
// Because events/op is the determinism contract, -update REFUSES to write
// a baseline whose events/op differs from -baseline unless
// -expect-events-change is passed; when it is, the change is annotated in
// the entry's note rather than slipping in silently.
//
// The baseline schema is the one BENCH_PR2.json uses:
// {"benchmarks": {"<name>": {"after": {"ns_op": N, "events_op": N, "allocs_op": N}}}}.
// A metric absent from (or zero in) the baseline is not gated for that
// benchmark, so entries can opt in per metric.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// benchLine matches a benchmark result line, e.g.
// "BenchmarkFig09Enterprise-8  1  6.2e+08 ns/op  5265648 B/op  634045 allocs/op  5086806 events/op  1.912 normFCT".
// The -N suffix is GOMAXPROCS, captured so the speedup gate can tell
// whether the machine had enough cores for a parallel run to mean anything.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-(\d+))?\s+\d+\s+(.*)$`)

// metricPair matches one "<value> <unit>" measurement within the line tail.
var metricPair = regexp.MustCompile(`([\d.eE+-]+)\s+([^\s]+)`)

// headerLine matches the `go test` environment preamble ("goos: linux",
// "cpu: Intel(R) ..."); -update copies these into the baseline's
// environment block.
var headerLine = regexp.MustCompile(`^(goos|goarch|cpu|pkg):\s+(.*)$`)

// baselineEntry is one benchmark's record. After maps the JSON metric key
// (ns_op, events_op, B_op, allocs_op, normFCT, ...) to its value; the
// gate only interprets the three keys it has policies for, but -update
// round-trips every metric the benchmark reported.
type baselineEntry struct {
	After map[string]float64 `json:"after"`
	Note  string             `json:"note,omitempty"`
}

type baselineFile struct {
	Description string                    `json:"description,omitempty"`
	Environment map[string]string         `json:"environment,omitempty"`
	Benchmarks  map[string]*baselineEntry `json:"benchmarks"`
}

// measured holds the metrics parsed from one benchmark output line,
// keyed by the output unit ("ns/op", "events/op", ...).
type measured map[string]float64

// metricKey converts a benchmark output unit to its baseline JSON key:
// "ns/op" -> "ns_op", "goodput%" -> "goodput_pct", "normFCT" -> "normFCT".
func metricKey(unit string) string {
	k := strings.ReplaceAll(unit, "/", "_")
	k = strings.ReplaceAll(k, "%", "_pct")
	return k
}

func main() {
	var (
		baselinePath    = flag.String("baseline", "", "baseline JSON file (required; make bench-guard names the current one)")
		maxRegress      = flag.Float64("max-regress", 0.15, "allowed fractional ns/op regression over baseline")
		maxAllocRegress = flag.Float64("max-alloc-regress", 0.10, "allowed fractional allocs/op regression over baseline")
		require         = flag.String("require", "BenchmarkEngineRaw,BenchmarkFig09Enterprise,BenchmarkScale64Leaves40G",
			"comma-separated benchmarks that must be present in the output")
		nsBenches = flag.String("ns-benches", "BenchmarkEngineRaw",
			"comma-separated benchmarks whose ns/op is gated; others only gate events/op and allocs/op (single-iteration figure runs are too wall-clock-noisy across machines)")
		speedups = flag.String("speedup", "",
			"comma-separated FAST:SLOW:RATIO triples: FAST's ns/op must beat SLOW's by at least RATIO× (e.g. BenchmarkScale256Leaves40GParallel8:BenchmarkScale256Leaves40G:2.5)")
		speedupMinProcs = flag.Int("speedup-min-procs", 8,
			"skip the -speedup gates (with a loud warning) when the run had fewer GOMAXPROCS than this — a starved machine cannot show parallel speedup")
		updatePath = flag.String("update", "",
			"write a regenerated baseline to this path instead of gating; benchmarks missing from the output are carried forward from -baseline")
		expectEventsChange = flag.Bool("expect-events-change", false,
			"allow -update to record an events/op that differs from -baseline (the change is annotated in the entry's note); without this flag a changed events/op aborts the update")
		desc = flag.String("desc", "",
			"description for the regenerated baseline (-update); empty keeps the old baseline's description")
		command = flag.String("command", "",
			"recording command noted in the regenerated baseline's environment block (-update)")
	)
	flag.Parse()
	if *baselinePath == "" {
		fatal("-baseline is required: name a BENCH_*.json record, as the Makefile's bench-guard and bench-guard-parallel targets do")
	}

	raw, err := os.ReadFile(*baselinePath)
	if err != nil {
		fatal("read baseline: %v", err)
	}
	var base baselineFile
	if err := json.Unmarshal(raw, &base); err != nil {
		fatal("parse %s: %v", *baselinePath, err)
	}

	in := os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal("open bench output: %v", err)
		}
		defer f.Close()
		in = f
	}

	results := map[string]measured{}
	procs := map[string]int{}
	env := map[string]string{}
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if h := headerLine.FindStringSubmatch(line); h != nil && h[1] != "pkg" {
			env[h[1]] = h[2]
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		got := measured{}
		for _, pair := range metricPair.FindAllStringSubmatch(m[3], -1) {
			v, err := strconv.ParseFloat(pair[1], 64)
			if err != nil {
				continue
			}
			got[pair[2]] = v
		}
		if len(got) > 0 {
			results[m[1]] = got // last run wins, as `go test -count` would
			procs[m[1]], _ = strconv.Atoi(m[2])
		}
	}
	if err := sc.Err(); err != nil {
		fatal("read bench output: %v", err)
	}

	for _, name := range strings.Split(*require, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if _, ok := results[name]; !ok {
			fatal("required benchmark %s missing from output (did it run?)", name)
		}
	}

	if *updatePath != "" {
		update(*updatePath, *baselinePath, &base, results, env, *desc, *command, *expectEventsChange)
		return
	}

	gateNs := map[string]bool{}
	for _, name := range strings.Split(*nsBenches, ",") {
		gateNs[strings.TrimSpace(name)] = true
	}

	failures := 0
	checked := 0
	for name, got := range results {
		entry := base.Benchmarks[name]
		if entry == nil {
			continue
		}
		checked++
		if gateNs[name] {
			failures += gate(name, "ns/op", got["ns/op"], entry.After["ns_op"], *maxRegress)
		}
		failures += gate(name, "events/op", got["events/op"], entry.After["events_op"], 0)
		failures += gate(name, "allocs/op", got["allocs/op"], entry.After["allocs_op"], *maxAllocRegress)
	}
	if checked == 0 {
		fatal("no benchmark in the output has a baseline entry in %s", *baselinePath)
	}

	for _, spec := range strings.Split(*speedups, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		failures += gateSpeedup(spec, results, procs, *speedupMinProcs)
	}

	if failures > 0 {
		fatal("%d metric(s) regressed", failures)
	}
}

// update regenerates a baseline from the measured results, carrying
// forward old entries whose benchmarks did not run. The events/op guard
// is the point: a baseline update is the one place a behavior change can
// be laundered past the exact-match gate, so a changed events/op aborts
// unless the caller passed -expect-events-change, and an allowed change
// is written into the entry's note where a reviewer will see it.
func update(path, baselinePath string, base *baselineFile, results map[string]measured, env map[string]string, desc, command string, expectEventsChange bool) {
	out := baselineFile{
		Description: desc,
		Environment: map[string]string{},
		Benchmarks:  map[string]*baselineEntry{},
	}
	if out.Description == "" {
		out.Description = base.Description
	}
	for k, v := range env {
		out.Environment[k] = v
	}
	if command != "" {
		out.Environment["command"] = command
	} else if c, ok := base.Environment["command"]; ok {
		out.Environment["command"] = c
	}

	var eventsChanged []string
	names := make([]string, 0, len(results))
	for name := range results {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		entry := &baselineEntry{After: map[string]float64{}}
		for unit, v := range results[name] {
			entry.After[metricKey(unit)] = v
		}
		if old := base.Benchmarks[name]; old != nil {
			oldEv, newEv := old.After["events_op"], entry.After["events_op"]
			if oldEv > 0 && newEv > 0 && oldEv != newEv {
				eventsChanged = append(eventsChanged,
					fmt.Sprintf("%s: %.0f -> %.0f (%+.1f%%)", name, oldEv, newEv, (newEv-oldEv)/oldEv*100))
				entry.Note = fmt.Sprintf(
					"events/op changed from %.0f (%+.1f%%) — acknowledged via -expect-events-change",
					oldEv, (newEv-oldEv)/oldEv*100)
			}
		}
		out.Benchmarks[name] = entry
	}
	// Carry forward baselines the run didn't re-measure, marked so their
	// numbers aren't mistaken for this recording's environment.
	for name, old := range base.Benchmarks {
		if _, ok := out.Benchmarks[name]; ok {
			continue
		}
		carried := &baselineEntry{After: old.After, Note: old.Note}
		if !strings.Contains(carried.Note, "carried forward") {
			carried.Note = strings.TrimSpace("carried forward (not re-measured in this update). " + carried.Note)
		}
		out.Benchmarks[name] = carried
	}

	if len(eventsChanged) > 0 && !expectEventsChange {
		fatal("refusing to update: events/op changed vs %s for:\n  %s\nevents/op is the determinism contract — pass -expect-events-change only if the simulation was INTENDED to execute a different event count with identical results",
			baselinePath, strings.Join(eventsChanged, "\n  "))
	}

	f, err := os.Create(path)
	if err != nil {
		fatal("write baseline: %v", err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&out); err != nil {
		fatal("encode baseline: %v", err)
	}
	if err := f.Close(); err != nil {
		fatal("close baseline: %v", err)
	}
	fmt.Printf("benchguard: wrote %s (%d measured, %d carried forward", path, len(names), len(out.Benchmarks)-len(names))
	if len(eventsChanged) > 0 {
		fmt.Printf(", %d events/op change(s) annotated", len(eventsChanged))
	}
	fmt.Println(")")
	for _, c := range eventsChanged {
		fmt.Printf("benchguard: events/op change: %s\n", c)
	}
}

// gateSpeedup enforces one FAST:SLOW:RATIO spec: the parallel benchmark's
// ns/op must undercut the sequential one's by at least RATIO×. ns/op of a
// parallel run only means something when the machine actually has the
// cores, so on a run below minProcs the gate is skipped with a warning
// loud enough to show up in CI logs (the events/op exact gates above still
// pin determinism there).
func gateSpeedup(spec string, results map[string]measured, procs map[string]int, minProcs int) int {
	parts := strings.Split(spec, ":")
	if len(parts) != 3 {
		fatal("bad -speedup spec %q (want FAST:SLOW:RATIO)", spec)
	}
	fast, slow := parts[0], parts[1]
	minRatio, err := strconv.ParseFloat(parts[2], 64)
	if err != nil || minRatio <= 0 {
		fatal("bad -speedup ratio in %q", spec)
	}
	fastGot, ok := results[fast]
	if !ok {
		fatal("speedup gate: benchmark %s missing from output (did it run?)", fast)
	}
	slowGot, ok := results[slow]
	if !ok {
		fatal("speedup gate: benchmark %s missing from output (did it run?)", slow)
	}
	if p := procs[fast]; p < minProcs {
		fmt.Fprintf(os.Stderr, "benchguard: WARNING: skipping speedup gate %s vs %s — run had GOMAXPROCS=%d, need ≥ %d for parallel speedup to be measurable\n",
			fast, slow, p, minProcs)
		return 0
	}
	fastNs, slowNs := fastGot["ns/op"], slowGot["ns/op"]
	if fastNs <= 0 || slowNs <= 0 {
		fatal("speedup gate: %s or %s reported no ns/op", fast, slow)
	}
	ratio := slowNs / fastNs
	if ratio < minRatio {
		fmt.Fprintf(os.Stderr, "benchguard: FAIL speedup %s vs %s: %.2f×, floor %.2f×\n",
			fast, slow, ratio, minRatio)
		return 1
	}
	fmt.Printf("benchguard: ok   speedup %s vs %s: %.2f× (floor %.2f×)\n", fast, slow, ratio, minRatio)
	return 0
}

// gate checks one metric against its baseline with a fractional tolerance
// (0 = exact match required) and returns 1 on failure. A zero/absent
// baseline or measurement skips the check: not every benchmark reports
// every metric, and baselines opt in per metric.
func gate(bench, metric string, got, want, tolerance float64) int {
	if want <= 0 || got <= 0 {
		return 0
	}
	delta := (got - want) / want * 100
	if tolerance == 0 {
		if got != want {
			fmt.Fprintf(os.Stderr, "benchguard: FAIL %s %s: %v vs baseline %v (%+.2f%%, exact match required — simulation behavior changed)\n",
				bench, metric, got, want, delta)
			return 1
		}
		fmt.Printf("benchguard: ok   %s %s: %v (exact)\n", bench, metric, got)
		return 0
	}
	if got > want*(1+tolerance) {
		fmt.Fprintf(os.Stderr, "benchguard: FAIL %s %s: %.0f vs baseline %.0f (%+.1f%%, limit +%.0f%%)\n",
			bench, metric, got, want, delta, tolerance*100)
		return 1
	}
	fmt.Printf("benchguard: ok   %s %s: %.0f vs baseline %.0f (%+.1f%%, limit +%.0f%%)\n",
		bench, metric, got, want, delta, tolerance*100)
	return 0
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchguard: "+format+"\n", args...)
	os.Exit(1)
}
