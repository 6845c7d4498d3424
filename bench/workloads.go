package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"time"

	"conga"
	"conga/internal/core"
	"conga/internal/fabric"
	"conga/internal/runner"
	"conga/internal/sim"
	"conga/internal/telemetry"
	"conga/internal/workload"
)

// mss is the TCP payload of the 1500-byte MTU every workload runs with; the
// goodput numerator counts payload segments of this size.
const mss = 1460

// shape names the fabric a workload runs on; the ladder rungs are measured
// once per shape.
type shape int

const (
	shapeTestbed shape = iota
	shapeScale
)

// topology returns the shape's fabric. sizeScale shrinks the large fabric
// for the tier-1 test; at 1 it is the 256-leaf cell of conga.ScaleConfig.
func (s shape) topology() conga.Topology {
	if s == shapeTestbed {
		return conga.Testbed()
	}
	return conga.ScaleConfig{Leaves: []int{scaled(256, 8)}, AccessGbps: []float64{40}}.Configs()[0].Topology
}

// fabricConfig lowers a topology to the fabric package's own config, the
// way conga's unexported Topology.fabricConfig does, so set-up steps and
// rungs build exactly the networks the workloads run on.
func fabricConfig(t conga.Topology, scheme conga.Scheme, seed uint64, reg *telemetry.Registry) fabric.Config {
	params := core.DefaultParams()
	if scheme == conga.SchemeCONGAFlow {
		params = core.CongaFlowParams()
	}
	return fabric.Config{
		NumLeaves:     t.Leaves,
		NumSpines:     t.Spines,
		HostsPerLeaf:  t.HostsPerLeaf,
		LinksPerSpine: t.LinksPerSpine,
		AccessRateBps: t.AccessGbps * 1e9,
		FabricRateBps: t.FabricGbps * 1e9,
		Scheme:        scheme,
		Params:        params,
		Seed:          seed,
		Telemetry:     reg,
	}
}

// stratified is a flow-size distribution that hands out the n midpoint
// quantiles of base, each exactly once, in an order fixed by the seed. Every
// seed therefore offers the same multiset of flow sizes (the same segment
// count and byte total) while arrival times, endpoints and ordering still
// come from the seed: with independent draws from the heavy-tailed
// enterprise distribution the total work of a 2000-flow pass varies by a
// factor of two between seeds, which would drown every host-time metric.
type stratified struct {
	name  string
	sizes []int64
	mean  float64
	next  int
}

func newStratified(base *workload.Empirical, n int, seed uint64) *stratified {
	s := &stratified{name: fmt.Sprintf("%s-stratified-%d", base.Name(), n), sizes: make([]int64, n)}
	var sum float64
	for i := range s.sizes {
		v := int64(base.Quantile((float64(i) + 0.5) / float64(n)))
		if v < 1 {
			v = 1
		}
		s.sizes[i] = v
		sum += float64(v)
	}
	s.mean = sum / float64(n)
	sim.NewRand(seed^0x5bd1e995).Shuffle(n, func(i, j int) { s.sizes[i], s.sizes[j] = s.sizes[j], s.sizes[i] })
	return s
}

func (s *stratified) Name() string  { return s.name }
func (s *stratified) Mean() float64 { return s.mean }

// Sample ignores the generator's stream: the permutation is the randomness.
func (s *stratified) Sample(*sim.Rand) int64 {
	v := s.sizes[s.next%len(s.sizes)]
	s.next++
	return v
}

// passResult is what one pass of a workload returns to the harness: the
// operation counts of the contract, the work done, and the simulated
// statistics the digest covers.
type passResult struct {
	ops, failed int    // generated flows (Incast: rounds) and those not completed
	segments    int64  // Σ⌈size/MSS⌉ over completed operations
	events      uint64 // executed simulator events (exact)
	drops       uint64
	retx        uint64
	timeouts    uint64
	simStat     float64 // norm_fct, or goodput_frac for Incast
	digest      uint64
	configWall  time.Duration // Σ per-config Wall (sweep speedup numerator)
}

// workloadDef describes one benchmark workload. setup performs one set-up
// build (input generation plus the fabric build) and pass runs the
// conga.Run* call(s) a user of the library would make; a non-nil tracer
// records spans around each call into a layer.
type workloadDef struct {
	name  string
	shape shape
	why   string
	// setupSteps documents what one set-up build does; setupBuilds is how
	// many builds make a batch (sized so a batch lasts 60-130 ms and the
	// 6-11 batches of a run ≥0.5 s).
	setupSteps  string
	setupBuilds int
	config      string // human-readable per-workload config for the manifest
	setup       func(e *env, tr *tracer) error
	pass        func(e *env, tr *tracer) (passResult, error)
	// verify, when set, is an extra correctness check run once after the
	// timed passes, given the first pass's result.
	verify func(e *env, first passResult) error
	// undeclared workloads are not in BENCHMARK.json, so the driver does not
	// gate their end-to-end metrics: they keep both cores busy, and on a
	// 2-vCPU shared host that measures the scheduler (the driver saw
	// scale256_p2's wall_s spread 18-25% between quartiles of the same code).
	// They still run in a set, by name, and as partners of every traced run
	// (conga.parallel_speedup, runner.sweep_speedup).
	undeclared bool
}

// env carries the per-process inputs of a workload.
type env struct {
	seed uint64
	dir  string // scratch directory for telemetry and replay files
}

func fctBase(seed uint64) conga.FCTConfig {
	return conga.FCTConfig{
		Topology:     conga.Testbed(),
		Scheme:       conga.SchemeCONGA,
		Load:         0.6,
		Duration:     200 * time.Millisecond,
		MaxFlows:     scaled(2000, 60),
		Transport:    conga.TransportConfig{MinRTO: 10 * time.Millisecond},
		Seed:         seed,
		CollectFlows: true,
	}
}

func withDist(cfg conga.FCTConfig) conga.FCTConfig {
	cfg.Custom = newStratified(workload.Enterprise(), cfg.MaxFlows, cfg.Seed)
	return cfg
}

func scaleCell(seed uint64, parallel int) conga.FCTConfig {
	cfg := conga.ScaleConfig{
		Leaves:     []int{scaled(256, 8)},
		AccessGbps: []float64{40},
		Scheme:     conga.SchemeCONGA, // as `congabench scale` sets it; the zero value is ECMP
		MaxFlows:   scaled(2000, 60),
		Seed:       seed,
		Parallel:   parallel,
	}.Configs()[0]
	cfg.CollectFlows = true
	return cfg
}

func sweepConfigs(seed uint64) []conga.FCTConfig {
	var cfgs []conga.FCTConfig
	for _, s := range conga.AllSchemes() {
		cfg := fctBase(seed)
		cfg.Scheme = s
		cfg.Topology.FailedLinks = [][3]int{{1, 1, 1}}
		cfg.MaxFlows = scaled(600, 40)
		if s == conga.SchemeSpray {
			cfg.Transport.ReorderWindow = 100 * time.Microsecond
		}
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

func incastConfig(seed uint64) conga.IncastConfig {
	return conga.IncastConfig{
		Topology:     conga.Testbed(),
		Scheme:       conga.SchemeCONGA,
		Transport:    conga.TransportConfig{MinRTO: time.Millisecond},
		Fanout:       32,
		RequestBytes: 10 << 20,
		Rounds:       scaled(600, 6),
		Seed:         seed,
	}
}

// buildFCT is the set-up build of one FCT config: a fresh fabric and the
// pregenerated arrival sequence it would be offered.
func buildFCT(cfg conga.FCTConfig, reg *telemetry.Registry, tr *tracer) error {
	sp := tr.begin("fabric.build")
	engines := []*sim.Engine{sim.New()}
	for i := 1; i < cfg.Parallel; i++ {
		engines = append(engines, sim.New())
	}
	scheme := cfg.Scheme
	if scheme == conga.SchemeMPTCPMarker {
		scheme = conga.SchemeECMP
	}
	net, err := fabric.NewPartitionedNetwork(engines, fabricConfig(cfg.Topology, scheme, cfg.Seed, reg))
	tr.end(sp)
	if err != nil {
		return err
	}
	for _, f := range cfg.Topology.FailedLinks {
		net.FailLink(f[0], f[1], f[2])
	}
	sp = tr.begin("workload.pregen")
	defer tr.end(sp)
	gen, err := workload.NewGenerator(engines[0], net, workload.GenConfig{
		Load:          cfg.Load,
		Dist:          withDist(cfg).Custom,
		Duration:      sim.Duration(cfg.Duration),
		MaxFlows:      cfg.MaxFlows,
		InterLeafOnly: true,
		Seed:          cfg.Seed,
	}, nil)
	if err != nil {
		return err
	}
	if n := len(gen.Pregenerate()); n != cfg.MaxFlows {
		return fmt.Errorf("pregenerated %d arrivals, want %d", n, cfg.MaxFlows)
	}
	return nil
}

// runFCT runs one config under a span and folds its result.
func runFCT(cfg conga.FCTConfig, tr *tracer) (*conga.FCTResult, error) {
	sp := tr.begin("conga.RunFCT")
	res, err := conga.RunFCT(withDist(cfg))
	if res != nil {
		tr.count(sp, "events", float64(res.Events))
		tr.count(sp, "flows", float64(res.Completed))
	}
	tr.end(sp)
	return res, err
}

func foldFCT(results ...*conga.FCTResult) passResult {
	var p passResult
	h := fnv.New64a()
	var norm float64
	for _, r := range results {
		p.ops += r.Generated
		p.failed += r.Generated - r.Completed
		p.events += r.Events
		p.drops += r.Drops
		p.retx += r.Retransmits
		p.timeouts += r.Timeouts
		p.configWall += r.Wall
		norm += r.NormFCT
		for _, f := range r.FlowFCTs {
			p.segments += (f.Size + mss - 1) / mss
			hashU64(h, f.ID, uint64(f.Size), uint64(f.FCT))
		}
		hashU64(h, r.Events, r.Drops, r.Retransmits)
	}
	p.simStat = norm / float64(len(results))
	p.digest = h.Sum64()
	return p
}

func hashU64(h hash.Hash64, vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
}

func fctWorkload(name string, sh shape, why, steps, config string, builds int, cfgOf func(e *env) conga.FCTConfig) workloadDef {
	return workloadDef{
		name: name, shape: sh, why: why, setupSteps: steps, setupBuilds: builds, config: config,
		setup: func(e *env, tr *tracer) error {
			cfg := cfgOf(e)
			var reg *telemetry.Registry
			if cfg.Telemetry != nil {
				if err := os.MkdirAll(cfg.Telemetry.Dir, 0o755); err != nil {
					return err
				}
				reg = telemetry.New(*cfg.Telemetry)
			}
			return buildFCT(cfg, reg, tr)
		},
		pass: func(e *env, tr *tracer) (passResult, error) {
			res, err := runFCT(cfgOf(e), tr)
			if err != nil {
				return passResult{}, err
			}
			return foldFCT(res), nil
		},
	}
}

func (w workloadDef) withVerify(fn func(e *env, first passResult) error) workloadDef {
	w.verify = fn
	return w
}

var workloads = []workloadDef{
	fctWorkload("fig09_testbed", shapeTestbed,
		"Paper's headline Fig. 9 cell (CONGA+TCP, enterprise, load 0.6) on the 64-host testbed: state stays cache-resident, so sim, fused fabric hops, core decisions and the tcp fast path do the work.",
		"stratified sizes + Pregenerate + fabric.NewNetwork(testbed, CONGA)",
		"RunFCT Testbed() CONGA+TCP enterprise(stratified) load 0.6 Duration 200ms MaxFlows 2000 MinRTO 10ms",
		200, func(e *env) conga.FCTConfig { return fctBase(e.seed) }).withVerify(verifyReplay),
	fctWorkload("fig09_observed", shapeTestbed,
		"The same cell with TelemetryAll and a CSV+NDJSON flush: observers force the unfused link path and the sinks run, so fabric (slow path) and telemetry do the work; guards the observed path.",
		"mkdir + telemetry.New(All) + stratified sizes + Pregenerate + fabric.NewNetwork(testbed, CONGA, registry)",
		"fig09_testbed config + TelemetryAll(<scratch dir>)",
		20, func(e *env) conga.FCTConfig {
			cfg := fctBase(e.seed)
			cfg.Telemetry = conga.TelemetryAll(filepath.Join(e.dir, "telemetry"))
			return cfg
		}),
	{
		name: "fig11_sweep", shape: shapeTestbed, undeclared: true,
		why:         "Fig. 11 link-failure sweep of all 7 schemes through RunFCTs (claims must hold under faults): runner fills both cores, every fabric strategy and mptcp run; core is only 2/7 of it.",
		setupSteps:  "per scheme: stratified sizes + Pregenerate + fabric.NewNetwork(testbed, scheme) + FailLink(1,1,1)",
		setupBuilds: 40,
		config:      "RunFCTs AllSchemes() (spray: ReorderWindow 100us) Testbed() FailedLinks {{1,1,1}} enterprise(stratified) load 0.6 MaxFlows 600 each",
		setup: func(e *env, tr *tracer) error {
			for _, cfg := range sweepConfigs(e.seed) {
				if err := buildFCT(cfg, nil, tr); err != nil {
					return err
				}
			}
			return nil
		},
		pass: func(e *env, tr *tracer) (passResult, error) {
			cfgs := sweepConfigs(e.seed)
			var results []*conga.FCTResult
			var err error
			if tr == nil {
				for i := range cfgs {
					cfgs[i] = withDist(cfgs[i])
				}
				results, err = conga.RunFCTs(cfgs)
			} else {
				// RunFCTs is runner.Map(0, cfgs, RunFCT); the traced pass
				// makes the same call with a span-recording closure.
				results, err = runner.Map(0, cfgs, func(cfg conga.FCTConfig) (*conga.FCTResult, error) { return runFCT(cfg, tr) })
			}
			if err != nil {
				return passResult{}, err
			}
			return foldFCT(results...), nil
		},
	},
	{
		name: "incast", shape: shapeTestbed,
		why:         "Fig. 13 Incast, fanout 32 into one 10G access port: a hot queue, tail drops, fast retransmit and RTO timers, so the fabric queued path and tcp loss recovery do the work; flowlets almost idle.",
		setupSteps:  "fabric.NewNetwork(testbed, CONGA) (rounds are deterministic: no input generation)",
		setupBuilds: 400,
		config:      "RunIncast Testbed() CONGA+TCP fanout 32 RequestBytes 10MB Rounds 600 MinRTO 1ms",
		setup: func(e *env, tr *tracer) error {
			sp := tr.begin("fabric.build")
			defer tr.end(sp)
			_, err := fabric.NewNetwork(sim.New(), fabricConfig(conga.Testbed(), conga.SchemeCONGA, e.seed, nil))
			return err
		},
		pass: func(e *env, tr *tracer) (passResult, error) {
			cfg := incastConfig(e.seed)
			sp := tr.begin("conga.RunIncast")
			r, err := conga.RunIncast(cfg)
			if r != nil {
				tr.count(sp, "events", float64(r.Events))
				tr.count(sp, "rounds", float64(r.CompletedRounds))
			}
			tr.end(sp)
			if err != nil {
				return passResult{}, err
			}
			perServer := cfg.RequestBytes / int64(cfg.Fanout)
			p := passResult{
				ops:        cfg.Rounds,
				failed:     cfg.Rounds - r.CompletedRounds,
				segments:   int64(r.CompletedRounds) * int64(cfg.Fanout) * ((perServer + mss - 1) / mss),
				events:     r.Events,
				drops:      r.Drops,
				timeouts:   r.Timeouts,
				simStat:    r.GoodputFraction,
				configWall: r.Wall,
			}
			h := fnv.New64a()
			hashU64(h, uint64(r.CompletedRounds), uint64(r.TotalTime), uint64(r.RoundTimeMean), uint64(r.RoundTimeP99),
				r.Events, r.Drops, r.Timeouts, math.Float64bits(r.GoodputFraction))
			p.digest = h.Sum64()
			return p, nil
		},
	},
	fctWorkload("scale256", shapeScale,
		"256-leaf, 1024-host cell of the scale sweep: port tables, per-link state, DRE dirty lists and timer-wheel spread exceed cache, so per-event cost in fabric and sim grows and set-up counts.",
		"stratified sizes + Pregenerate + fabric.NewNetwork(256 leaves, CONGA)",
		"RunFCT ScaleConfig{Leaves:[256], AccessGbps:[40], Scheme:CONGA, MaxFlows:2000}.Configs()[0], enterprise(stratified)",
		2, func(e *env) conga.FCTConfig { return scaleCell(e.seed, 1) }),
	fctWorkload("scale256_p2", shapeScale,
		"The same cell with Parallel 2: sim.ParallelEngine barriers, fabric partition mailboxes and split half-flows do the extra work; with scale256 it gives the honest 2-core speedup.",
		"stratified sizes + Pregenerate + fabric.NewPartitionedNetwork(2 engines, 256 leaves, CONGA)",
		"scale256 config + Parallel 2",
		2, func(e *env) conga.FCTConfig { return scaleCell(e.seed, 2) }).notDeclared(),
}

func (w workloadDef) notDeclared() workloadDef {
	w.undeclared = true
	return w
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
