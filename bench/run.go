package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"conga"
)

// metric is one reported value in the contract's form.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is everything one run of one workload produced. The contract's
// result line is a projection of it; the output file holds all of it.
type report struct {
	Manifest    manifest           `json:"manifest"`
	Workload    string             `json:"workload"`
	Config      string             `json:"config"`
	SetupSteps  string             `json:"setup_steps"`
	SetupBuilds int                `json:"setup_builds"`
	SetupTail   string             `json:"setup_tail,omitempty"` // highest percentile of the builds with ten samples beyond it
	Traced      bool               `json:"traced"`
	Correct     bool               `json:"correct"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Passes      int                `json:"passes"`
	Metrics     map[string]metric  `json:"metrics"`
	Samples     map[string]sample  `json:"samples"` // per-pass values behind the reported ones (setup_s: the median build of each batch)
	Counts      map[string]float64 `json:"counts"`  // exact per-pass counts and simulated statistics
	Digest      string             `json:"digest"`
	Problems    []string           `json:"problems,omitempty"` // failed checks: the run is not correct
	Notes       []string           `json:"notes,omitempty"`    // predictions checked, reported but not scored
	SpanFile    string             `json:"span_file,omitempty"`
}

type runOpts struct {
	seed    uint64
	seconds int
	reps    int
	traced  bool
	dir     string
}

const (
	minPasses       = 3
	minTracedPasses = 2
)

// passStats is one measured pass.
type passStats struct {
	passResult
	wall, cpu float64
	mem       memDelta
}

// measurePass runs one pass with the collector run before the timed
// region; MemStats are read outside it.
func measurePass(w *workloadDef, e *env, tr *tracer) (passStats, error) {
	var ps passStats
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	var err error
	ps.wall, ps.cpu, err = timed(func() error {
		var err error
		ps.passResult, err = w.pass(e, tr)
		return err
	})
	runtime.ReadMemStats(&m1)
	ps.mem = memBetween(&m0, &m1)
	return ps, err
}

// runWorkload is the benchmark for one workload: the set-up builds, one
// untimed warm-up pass, the timed passes, the checks, and — traced — one
// traced pass under a CPU profile, the ladder and the cross-workload ratios.
func runWorkload(w *workloadDef, o runOpts) (*report, error) {
	e := &env{seed: o.seed, dir: filepath.Join(o.dir, fmt.Sprintf("scratch-%s-%d", w.name, os.Getpid()))}
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(e.dir)

	rep := &report{
		Manifest: newManifest(o.seed, o.seconds, o.reps), Workload: w.name, Config: w.config,
		SetupSteps: w.setupSteps, Traced: o.traced,
		Metrics: map[string]metric{}, Samples: map[string]sample{},
	}
	var tr *tracer
	if o.traced {
		tr = newTracer(w.name)
	}
	root := tr.beginPhase("bench.workload")

	// Set-up: the workload's fixed steps, built in batches of setupBuilds:
	// one batch before the warm-up (what a cold process pays; the traced
	// run's setup spans) and one after every timed pass, so the builds sample
	// the whole run and a burst on the host cannot cover all of them. A run
	// reports the median of the batch medians (builds after a pass find a
	// grown heap and can read slower than the first batch, so a median over
	// all builds would move with the pass count). Each build is timed on its
	// own with the collector run before it, outside the timed region, so
	// neither the time nor the process's peak RSS depends on when a
	// concurrent GC cycle happened to finish.
	var builds, batches sample
	build := func(n int, tr *tracer) error {
		from := len(builds)
		for b := 0; b < n; b++ {
			runtime.GC()
			wall, _, err := timed(func() error { return w.setup(e, tr) })
			if err != nil {
				return fmt.Errorf("%s set-up: %w", w.name, err)
			}
			builds = append(builds, wall)
		}
		batches = append(batches, builds[from:].median())
		return nil
	}
	sp := tr.beginPhase("setup")
	err := build(scaled(w.setupBuilds, 1), tr)
	tr.count(sp, "builds", float64(len(builds)))
	tr.endPhase(sp)
	if err != nil {
		return nil, err
	}

	// Warm-up, untimed: heap growth and page faults a first pass pays.
	sp = tr.begin("warmup")
	warm, err := measurePass(w, e, nil)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("%s warm-up: %w", w.name, err)
	}

	// Timed passes of identical input, tracing off, until the pass that ends
	// nearest the budget (an iteration is a pass plus its batch of set-up
	// builds; the traced run spends a third of the budget here).
	budget := time.Duration(o.seconds) * time.Second
	floor := minPasses
	if o.traced {
		budget /= 3
		floor = minTracedPasses
	}
	var passes []passStats
	first := warm.passResult
	sp = tr.begin("untraced.passes")
	start := time.Now()
	more := func(n int) bool {
		if o.reps > 0 {
			return n < o.reps
		}
		elapsed := time.Since(start)
		return n < floor || elapsed+elapsed/time.Duration(2*n) <= budget
	}
	for n := 0; more(n); n++ {
		ps, err := measurePass(w, e, nil)
		if err != nil {
			return nil, fmt.Errorf("%s pass %d: %w", w.name, n+1, err)
		}
		passes = append(passes, ps)
		if err := build(scaled(w.setupBuilds, 1), nil); err != nil {
			return nil, err
		}
	}
	tr.count(sp, "passes", float64(len(passes)))
	tr.end(sp)
	rep.Passes = len(passes)
	rep.SetupBuilds = len(builds)
	if pct, v, ok := builds.tail(); ok {
		rep.SetupTail = fmt.Sprintf("p%g %.6f s", pct, v)
	}
	rep.Samples["setup_s"] = batches

	// Operations: one generated flow (Incast: one round) per pass; it fails
	// if it did not complete, and a pass whose digest differs from the
	// first pass's fails all of its operations.
	for i, ps := range passes {
		rep.Attempted += ps.ops
		if ps.digest != first.digest {
			rep.Failed += ps.ops
			rep.Problems = append(rep.Problems, fmt.Sprintf("pass %d digest %016x differs from first pass %016x", i+1, ps.digest, first.digest))
		} else {
			rep.Failed += ps.failed
		}
		rep.Samples["wall_s"] = append(rep.Samples["wall_s"], ps.wall)
		rep.Samples["cpu_s"] = append(rep.Samples["cpu_s"], ps.cpu)
		rep.Samples["goodput_pkts_per_s"] = append(rep.Samples["goodput_pkts_per_s"], float64(ps.segments)/ps.wall)
	}
	if first.failed > 0 {
		rep.Problems = append(rep.Problems, fmt.Sprintf("%d of %d operations did not complete", first.failed, first.ops))
	}
	// VmHWM of this process after the last pass: a workload runs in a
	// process of its own, so the mark covers its set-up, warm-up and passes,
	// and is read before the extra check below grows the heap.
	rss, err := vmHWM()
	if err != nil {
		return nil, err
	}
	if w.verify != nil && !o.traced {
		if err := w.verify(e, first); err != nil {
			rep.Problems = append(rep.Problems, err.Error())
		}
	}

	last := passes[len(passes)-1]
	rep.Digest = fmt.Sprintf("%016x", first.digest)
	rep.Counts = map[string]float64{
		"events": float64(first.events), "segments": float64(first.segments), "ops": float64(first.ops),
		"allocs": float64(last.mem.allocs), "drops": float64(first.drops), "retx": float64(first.retx),
		"timeouts": float64(first.timeouts), "sim_stat": first.simStat,
	}

	if o.traced {
		if err := tracedPart(w, e, tr, rep, warm, passes); err != nil {
			return nil, err
		}
		tr.endPhase(root)
		rep.SpanFile = filepath.Join(o.dir, fmt.Sprintf("spans-%s.json", w.name))
		if err := tr.write(rep.SpanFile, rep.Manifest); err != nil {
			return nil, err
		}
	} else {
		rep.Samples["peak_rss_mb"] = sample{rss}
		for _, d := range endToEnd {
			rep.Metrics[d.name] = metric{d.value(rep.Samples[d.name]), d.unit}
		}
	}
	rep.Correct = len(rep.Problems) == 0 && rep.Failed == 0
	return rep, nil
}

// tracedPart fills the per-layer metrics: the traced pass under a CPU
// profile, whole-run attribution, the ladder on the workload's shape, and
// the cross-workload ratios.
func tracedPart(w *workloadDef, e *env, tr *tracer, rep *report, warm passStats, passes []passStats) error {
	out := map[string]float64{}
	var walls sample
	for _, ps := range passes {
		walls = append(walls, ps.wall)
	}
	wall := walls.median()

	// The traced pass: spans around every call into a layer, CPU profile on.
	sp := tr.beginPhase("pass")
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	traced, err := measurePass(w, e, tr)
	pprof.StopCPUProfile()
	tr.count(sp, "events", float64(traced.events))
	tr.endPhase(sp)
	if err != nil {
		return fmt.Errorf("%s traced pass: %w", w.name, err)
	}
	if traced.digest != passes[0].digest {
		rep.Problems = append(rep.Problems, "traced pass digest differs from the untraced passes")
	}
	shares, nsamples, err := foldCPUProfile(prof.Bytes())
	if err != nil {
		return err
	}
	var sum float64
	for _, l := range cpuLayers {
		out[l+".cpu_frac"] = shares[l]
		sum += shares[l]
	}
	if math.Abs(sum-1) > 0.01 {
		rep.Problems = append(rep.Problems, fmt.Sprintf("cpu_frac shares sum to %.4f, want 1 ± 0.01", sum))
	}
	rep.Counts["cpu_profile_samples"] = float64(nsamples)
	out["trace_overhead_frac"] = traced.wall/wall - 1

	// Whole-run attribution from the result structs and MemStats.
	p := passes[len(passes)-1]
	out["conga.events"] = float64(p.events)
	out["conga.ns_per_event"] = wall * 1e9 / float64(p.events)
	out["conga.events_per_pkt"] = float64(p.events) / float64(p.segments)
	out["conga.allocs"] = float64(p.mem.allocs)
	out["conga.alloc_mb"] = p.mem.allocMB
	out["conga.gc_cycles"] = float64(p.mem.gcCycles)
	out["conga.gc_pause_ms"] = p.mem.gcPauseMs
	out["conga.warmup_s"] = warm.wall - wall
	if w.name == "incast" {
		out["conga.goodput_frac"] = p.simStat
	} else {
		out["conga.norm_fct"] = p.simStat
	}
	out["conga.drops"] = float64(p.drops)
	out["conga.retx"] = float64(p.retx)
	out["conga.timeouts"] = float64(p.timeouts)
	out["conga.digest"] = float64(p.digest >> 16) // 48 bits: exact in a JSON number

	// The ladder, on the shape this workload runs on.
	lsp := tr.beginPhase("ladder")
	rungs, failed, err := runLadder(w.shape, e, tr)
	tr.endPhase(lsp)
	if err != nil {
		return fmt.Errorf("ladder: %w", err)
	}
	rep.Problems = append(rep.Problems, failed...)
	for k, v := range rungs {
		out[k] = v
	}

	// Cross-workload ratios: one untraced pass of each partner workload in
	// this process (this workload contributes its own last pass).
	psp := tr.beginPhase("partners")
	partner := map[string]passStats{}
	for _, name := range []string{"fig09_testbed", "fig09_observed", "fig11_sweep", "scale256", "scale256_p2"} {
		if name == w.name {
			partner[name] = p
			continue
		}
		s := tr.begin("partner." + name)
		ps, err := measurePass(findWorkload(name), e, nil)
		tr.end(s)
		if err != nil {
			return fmt.Errorf("partner pass %s: %w", name, err)
		}
		partner[name] = ps
	}
	tr.endPhase(psp)
	nsPerEvent := func(n string) float64 { return partner[n].wall * 1e9 / float64(partner[n].events) }
	out["conga.parallel_speedup"] = partner["scale256"].wall / partner["scale256_p2"].wall
	out["conga.scale_cost_ratio"] = nsPerEvent("scale256") / nsPerEvent("fig09_testbed")
	out["telemetry.overhead_frac"] = partner["fig09_observed"].wall/partner["fig09_testbed"].wall - 1
	out["telemetry.events_ratio"] = float64(partner["fig09_observed"].events) / float64(partner["fig09_testbed"].events)
	out["telemetry.allocs_ratio"] = float64(partner["fig09_observed"].mem.allocs) / float64(partner["fig09_testbed"].mem.allocs)
	out["runner.sweep_speedup"] = partner["fig11_sweep"].configWall.Seconds() / partner["fig11_sweep"].wall

	// The ladder should separate the layers as predicted; a later change
	// may legitimately end one of these (one link model: events_ratio 1), so
	// they are reported, not scored.
	for _, c := range []struct{ hi, lo string }{
		{"sim.ns_per_event_far", "sim.ns_per_event_near"},
		{"fabric.events_per_pkt_contended", "fabric.events_per_pkt_idle"},
	} {
		rep.Notes = append(rep.Notes, fmt.Sprintf("predicted %s > %s: %v (%.4g vs %.4g)", c.hi, c.lo, out[c.hi] > out[c.lo], out[c.hi], out[c.lo]))
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf("predicted telemetry.events_ratio > 1: %v (%.4g)", out["telemetry.events_ratio"] > 1, out["telemetry.events_ratio"]))

	for _, d := range perLayer {
		rep.Metrics[d.name] = metric{out[d.name], d.unit} // 0 = not applicable to this workload
	}
	return nil
}

// verifyReplay is fig09_testbed's extra check: a recording run's trace,
// replayed into the identical config, must reproduce the digest.
func verifyReplay(e *env, first passResult) error {
	cfg := withDist(fctBase(e.seed))
	cfg.Record = true
	rec, err := conga.RunFCT(cfg)
	if err != nil {
		return fmt.Errorf("record run: %w", err)
	}
	cfg = fctBase(e.seed)
	cfg.Replay = rec.Trace
	rpl, err := conga.RunFCT(cfg)
	if err != nil {
		return fmt.Errorf("replay run: %w", err)
	}
	if r, p := foldFCT(rec).digest, foldFCT(rpl).digest; r != first.digest || p != first.digest {
		return fmt.Errorf("record→replay digests %016x → %016x differ from the pass digest %016x", r, p, first.digest)
	}
	return nil
}
