package conga

import (
	"fmt"
	"runtime"
	"time"

	"conga/internal/runner"
)

// ScaleConfig describes a large-fabric scale sweep — the ROADMAP's
// fig15-style open item: topologies an order of magnitude beyond the
// paper's 32-leaf evaluation, at 40G/100G access rates. Each (leaves,
// access-rate) cell runs one FCT experiment, the enterprise workload at 60%
// load with a 10 ms MinRTO; the allocation-free flow
// lifecycle (tcp.FlowPool, port table, pooled packets and events) is what
// keeps these runs GC-flat as the fabric and flow count grow.
type ScaleConfig struct {
	// Leaves lists the fabric widths to sweep (default 64, 128, 256).
	Leaves []int
	// AccessGbps lists the access link rates to sweep (default 40, 100).
	// Fabric links run at the same rate, the fig15 "access ≈ fabric"
	// regime; with 2·Spines·LinksPerSpine uplinks per leaf the fabric
	// stays rearrangeably non-blocking for HostsPerLeaf ≤ 4·Spines·Links.
	AccessGbps []float64
	// HostsPerLeaf, Spines and LinksPerSpine fix the per-leaf shape
	// (defaults 4, 4, 2 — 8 uplinks, inside the LBTag space).
	HostsPerLeaf  int
	Spines        int
	LinksPerSpine int

	Scheme Scheme

	// Duration is each cell's arrival window; MaxFlows bounds each cell
	// (the knob that keeps a 256-leaf sweep minutes, not hours).
	Duration time.Duration
	MaxFlows int

	Seed uint64

	// Parallel, when > 1, runs each cell space-parallel across that many
	// domain engines (FCTConfig.Parallel). The sweep's own cell-level
	// worker pool shrinks by the same factor so the two levels of
	// parallelism do not oversubscribe the machine.
	Parallel int
}

func (c ScaleConfig) withDefaults() ScaleConfig {
	if len(c.Leaves) == 0 {
		c.Leaves = []int{64, 128, 256}
	}
	if len(c.AccessGbps) == 0 {
		c.AccessGbps = []float64{40, 100}
	}
	if c.HostsPerLeaf == 0 {
		c.HostsPerLeaf = 4
	}
	if c.Spines == 0 {
		c.Spines = 4
	}
	if c.LinksPerSpine == 0 {
		c.LinksPerSpine = 2
	}
	if c.Duration == 0 {
		c.Duration = 10 * time.Millisecond
	}
	if c.MaxFlows == 0 {
		c.MaxFlows = 2000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// ScalePoint pairs one sweep cell with its result.
type ScalePoint struct {
	Leaves     int
	Hosts      int
	AccessGbps float64
	Result     *FCTResult
}

// Configs expands the sweep grid into per-cell FCTConfigs, leaves-major
// (all access rates for the smallest fabric first). The i-th config
// corresponds to the i-th point RunScaleStream returns.
func (c ScaleConfig) Configs() []FCTConfig {
	cfgs, _ := c.withDefaults().expand()
	return cfgs
}

func (c ScaleConfig) expand() ([]FCTConfig, []ScalePoint) {
	cfgs := make([]FCTConfig, 0, len(c.Leaves)*len(c.AccessGbps))
	pts := make([]ScalePoint, 0, cap(cfgs))
	for _, leaves := range c.Leaves {
		for _, gbps := range c.AccessGbps {
			cfgs = append(cfgs, FCTConfig{
				Topology: Topology{
					Leaves:        leaves,
					Spines:        c.Spines,
					HostsPerLeaf:  c.HostsPerLeaf,
					LinksPerSpine: c.LinksPerSpine,
					AccessGbps:    gbps,
					FabricGbps:    gbps,
				},
				Scheme: c.Scheme,
				Load:   0.6,
				// Datacenter-tuned RTO: at 40G+ rates the default 200 ms
				// clamp would turn any loss into a stall longer than the
				// whole run.
				Transport: TransportConfig{MinRTO: 10 * time.Millisecond},
				Duration:  c.Duration,
				MaxFlows:  c.MaxFlows,
				Seed:      c.Seed,
				Parallel:  c.Parallel,
			})
			pts = append(pts, ScalePoint{
				Leaves:     leaves,
				Hosts:      leaves * c.HostsPerLeaf,
				AccessGbps: gbps,
			})
		}
	}
	return cfgs, pts
}

// RunScaleStream executes the sweep across the parallel runner (one
// engine, one network and one set of pools per cell) and returns points in
// grid order. emit, when non-nil, fires once per cell in grid order as soon
// as it (and all earlier cells) have finished.
func RunScaleStream(cfg ScaleConfig, emit func(i int, p ScalePoint, err error)) ([]ScalePoint, error) {
	cfg = cfg.withDefaults()
	if got, max := cfg.Spines*cfg.LinksPerSpine, DefaultParams().MaxUplinks; got > max {
		return nil, fmt.Errorf("conga: scale sweep needs %d uplinks per leaf, LBTag space allows %d", got, max)
	}
	cfgs, pts := cfg.expand()
	// With space-parallel cells each run already occupies cfg.Parallel
	// cores; divide the cell-level pool so total goroutines ≈ NumCPU.
	workers := 0
	if cfg.Parallel > 1 {
		workers = runtime.NumCPU() / cfg.Parallel
		if workers < 1 {
			workers = 1
		}
	}
	results, err := runner.MapStream(workers, cfgs, RunFCT, func(i int, r *FCTResult, err error) {
		if emit != nil {
			pts[i].Result = r
			emit(i, pts[i], err)
		}
	})
	if err != nil {
		return nil, err
	}
	for i, r := range results {
		pts[i].Result = r
	}
	return pts, nil
}
