package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"
	"time"

	"conga/internal/workload"
)

// The tests run every workload and every rung at a fraction of their size:
// they check the harness, not the numbers.
func TestMain(m *testing.M) {
	sizeScale = 0.01
	os.Exit(m.Run())
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSONMatchesHarness holds BENCHMARK.json and the harness's
// tables equal: every declared name is emitted and vice versa.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	b := loadBenchmarkJSON(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	var declared []workloadDef
	for _, w := range workloads {
		if !w.undeclared {
			declared = append(declared, w)
		}
	}
	if len(b.Workloads) != len(declared) {
		t.Fatalf("BENCHMARK.json has %d workloads, harness declares %d", len(b.Workloads), len(declared))
	}
	for i, w := range declared {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json {%q, %q}, harness {%q, %q}", i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
		if !name.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: bad name or why (%d chars)", w.name, len(w.why))
		}
	}

	if len(b.EndToEnd) != len(endToEnd) || len(endToEnd) > 16 {
		t.Fatalf("end_to_end: BENCHMARK.json %d, harness %d (max 16)", len(b.EndToEnd), len(endToEnd))
	}
	seen := map[string]bool{}
	maxBound := 0.0
	for i, d := range endToEnd {
		e := b.EndToEnd[i]
		if e.Name != d.name || e.Unit != d.unit || e.Better != d.better || e.Bound != d.bound {
			t.Errorf("end_to_end %d: BENCHMARK.json %+v, harness %+v", i, e, d)
		}
		if !name.MatchString(d.name) || !unit.MatchString(d.unit) || seen[d.name] || d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("end_to_end %q: bad name, unit or bound", d.name)
		}
		seen[d.name] = true
		if d.bound > maxBound {
			maxBound = d.bound
		}
	}
	if endToEnd[0].name != "setup_s" || endToEnd[0].unit != "s" || endToEnd[0].better != "lower" || endToEnd[0].bound != maxBound {
		t.Errorf("setup_s must be a lower-is-better seconds metric with the largest bound, have %+v", endToEnd[0])
	}

	if len(b.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("per_layer: BENCHMARK.json %d, harness %d (max 128)", len(b.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		e := b.PerLayer[i]
		if e.Name != d.name || e.Unit != d.unit || e.Better != d.better {
			t.Errorf("per_layer %d: BENCHMARK.json %+v, harness %+v", i, e, d)
		}
		if !name.MatchString(d.name) || !unit.MatchString(d.unit) || seen[d.name] || (d.better != "lower" && d.better != "higher") {
			t.Errorf("per_layer %q: bad name, unit or direction", d.name)
		}
		seen[d.name] = true
	}
	for _, l := range cpuLayers {
		if !seen[l+".cpu_frac"] {
			t.Errorf("cpu layer %q has no per_layer metric", l)
		}
	}

	if len(b.Paths) != 1 || b.Paths[0] != "bench" || b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("paths %v run_seconds %d", b.Paths, b.RunSeconds)
	}
}

func metricNames(defs []metricDef) []string {
	var names []string
	for _, d := range defs {
		names = append(names, d.name)
	}
	sort.Strings(names)
	return names
}

func reportNames(r *report) []string {
	var names []string
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func testOpts(t *testing.T, traced bool) runOpts {
	return runOpts{seed: 3, seconds: 1, reps: 2, traced: traced, dir: t.TempDir()}
}

// TestEveryWorkloadRuns runs each workload's timed path: all operations
// complete, digests repeat across passes (runWorkload fails the pass's
// operations otherwise), and exactly the end-to-end metrics come out.
func TestEveryWorkloadRuns(t *testing.T) {
	want := metricNames(endToEnd)
	for i := range workloads {
		w := &workloads[i]
		rep, err := runWorkload(w, testOpts(t, false))
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 || rep.Passes != 2 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d passes=%d problems=%v", w.name, rep.Correct, rep.Attempted, rep.Failed, rep.Passes, rep.Problems)
		}
		if got := reportNames(rep); strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%s: metrics %v, want %v", w.name, got, want)
		}
		for n, m := range rep.Metrics {
			if !(m.Value > 0) {
				t.Errorf("%s: %s = %v, end-to-end metrics are never 0", w.name, n, m.Value)
			}
		}
	}
}

// TestTracedRunEmitsEveryLayerMetric runs the traced path on one workload
// per ladder shape: every rung runs, every per-layer name is emitted, the
// hop chains conserve packets, the CPU shares sum to 1 and the span file
// nests as documented.
func TestTracedRunEmitsEveryLayerMetric(t *testing.T) {
	want := metricNames(perLayer)
	for _, name := range []string{"fig11_sweep", "scale256_p2"} {
		rep, err := runWorkload(findWorkload(name), testOpts(t, true))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !rep.Correct {
			t.Errorf("%s: problems %v", name, rep.Problems)
		}
		if got := reportNames(rep); strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%s: metrics %v, want %v", name, got, want)
		}
		for _, rung := range perLayer[:33] { // the ladder rungs all measure something
			if v := rep.Metrics[rung.name].Value; v == 0 && rung.name != "tcp.timeouts" && rung.name != "tcp.retx_frac" && rung.name != "fabric.drop_frac_contended" {
				t.Errorf("%s: rung %s reported 0", name, rung.name)
			}
		}
		var sum float64
		for _, l := range cpuLayers {
			sum += rep.Metrics[l+".cpu_frac"].Value
		}
		if sum < 0.99 || sum > 1.01 {
			t.Errorf("%s: cpu_frac sum %v", name, sum)
		}

		data, err := os.ReadFile(rep.SpanFile)
		if err != nil {
			t.Fatal(err)
		}
		var file struct{ Spans []span }
		if err := json.Unmarshal(data, &file); err != nil {
			t.Fatal(err)
		}
		byID := map[int]span{}
		names := map[string]int{}
		for _, s := range file.Spans {
			byID[s.ID] = s
			names[s.Name]++
			if s.EndNs < s.StartNs || s.SelfNs < 0 || s.SelfNs > s.EndNs-s.StartNs || s.Workload != name {
				t.Errorf("%s: bad span %+v", name, s)
			}
		}
		for _, n := range []string{"bench.workload", "setup", "fabric.build", "workload.pregen", "pass", "conga.RunFCT", "ladder", "ladder.fabric", "partners"} {
			if names[n] == 0 {
				t.Errorf("%s: no %q span", name, n)
			}
		}
		for _, s := range file.Spans {
			if s.Name == "conga.RunFCT" && byID[s.Parent].Name != "pass" {
				t.Errorf("%s: conga.RunFCT span under %q, want pass", name, byID[s.Parent].Name)
			}
		}
	}
}

func TestStratifiedSizesAreSeedInvariant(t *testing.T) {
	a := newStratified(workload.Enterprise(), 500, 1)
	b := newStratified(workload.Enterprise(), 500, 2)
	segments := func(s *stratified) (n int64) {
		for _, v := range s.sizes {
			n += (v + mss - 1) / mss
		}
		return n
	}
	if segments(a) != segments(b) || a.Mean() != b.Mean() {
		t.Errorf("segments %d vs %d, mean %v vs %v", segments(a), segments(b), a.Mean(), b.Mean())
	}
	same := true
	for i := range a.sizes {
		if a.sizes[i] != b.sizes[i] {
			same = false
		}
	}
	if same {
		t.Error("two seeds gave the same order")
	}
	var first []int64
	for i := 0; i < 500; i++ {
		first = append(first, a.Sample(nil))
	}
	sort.Slice(first, func(i, j int) bool { return first[i] < first[j] })
	if first[0] < 1 || first[0] >= first[499] {
		t.Errorf("sizes %d..%d", first[0], first[499])
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{"wall_s", "s", "lower", 0.10}
	higher := metricDef{"goodput_pkts_per_s", "1/s", "higher", 0.10}
	for _, c := range []struct {
		d    metricDef
		a, b sample
		want string
	}{
		{lower, sample{1, 1.01, 1.02}, sample{1.05, 1.06, 1.04}, "ok"},
		{lower, sample{1, 1.01, 1.02}, sample{1.2, 1.21, 1.19}, "regressed"},
		{lower, sample{1, 1.01, 1.02}, sample{0.5, 0.51, 0.52}, "ok"},
		{lower, sample{1, 1.2, 1.1}, sample{1.05, 1.3, 1.15}, "unresolved"},
		{lower, sample{1, 1.2, 1.1}, sample{1.5, 1.8, 1.6}, "regressed"}, // wide, but every pass is worse
		{higher, sample{100, 101, 102}, sample{80, 81, 82}, "regressed"},
		{higher, sample{100, 101, 102}, sample{120, 121, 122}, "ok"},
	} {
		if got, worse := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s %v → %v: %s (worse %+.3f), want %s", c.d.name, c.a, c.b, got, worse, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	base := &report{
		Workload: "incast", Digest: "00ff", Counts: map[string]float64{"events": 100, "allocs": 50},
		Samples: map[string]sample{
			"setup_s":            {1, 1.01, 1.02, 1.03, 1.01, 1.02, 1, 1.01, 1.02, 1.03, 1.01, 9}, // one outlier build
			"wall_s":             {2, 2.02, 2.04},
			"cpu_s":              {2, 3, 2.2}, // spreads wider than the bound
			"goodput_pkts_per_s": {1000, 1010, 1020},
			"peak_rss_mb":        {40},
		},
	}
	slow := *base
	slow.Samples = map[string]sample{}
	for k, s := range base.Samples {
		for _, v := range s {
			if k != "goodput_pkts_per_s" {
				v *= 1.4
			}
			slow.Samples[k] = append(slow.Samples[k], v)
		}
	}
	a, b := dir+"/a.json", dir+"/b.json"
	if err := writeJSON(a, setFile{Reports: []*report{base}}); err != nil {
		t.Fatal(err)
	}
	if err := writeJSON(b, &slow); err != nil { // a bare report also loads
		t.Fatal(err)
	}
	var out bytes.Buffer
	regressed, err := compareFiles(&out, a, b)
	if err != nil {
		t.Fatal(err)
	}
	// setup_s, wall_s and peak_rss_mb regress by 40%; cpu_s does too, but its
	// passes overlap across a spread wider than the bound; goodput is equal.
	if regressed != 3 || strings.Count(out.String(), "regressed") != 3 || strings.Count(out.String(), "unresolved") != 1 ||
		!strings.Contains(out.String(), "identical") {
		t.Errorf("regressed = %d, output:\n%s", regressed, out.String())
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := newTracer("w")
	root := tr.beginPhase("root")
	a := tr.begin("a")
	b := tr.begin("b") // overlaps a, as concurrent sweep configs do
	tr.end(a)
	tr.end(b)
	tr.endPhase(root)
	root.StartNs, root.EndNs = 0, 100
	a.StartNs, a.EndNs = 10, 50
	b.StartNs, b.EndNs = 30, 70
	tr.finish()
	if root.SelfNs != 40 || a.SelfNs != 40 || a.Parent != root.ID || b.Parent != root.ID {
		t.Errorf("root self %d (want 40), a self %d, parents %d %d", root.SelfNs, a.SelfNs, a.Parent, b.Parent)
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin("x")) // a nil tracer records nothing
}

func TestFoldCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		newStratified(workload.Enterprise(), 1000, 1) // quantile math in internal/workload
	}
	pprof.StopCPUProfile()
	shares, n, err := foldCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if n < 10 || sum < 0.999 || sum > 1.001 || shares["runtime"] > 0.5 {
		t.Errorf("samples %d, shares %v", n, shares)
	}
	for fn, want := range map[string]string{
		"conga/internal/sim.(*Engine).Run":           "sim",
		"conga/internal/fabric.(*Link).Send":         "fabric",
		"conga/internal/lp.Solve":                    "other",
		"conga.runFCT":                               "other",
		"runtime.mallocgc":                           "runtime",
		"internal/runtime/atomic.(*Uint32).Load":     "runtime",
		"conga/internal/telemetry.(*Series).Observe": "telemetry",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
