package conga

import (
	"fmt"
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
	// regime; every cell has the per-leaf shape scaleHostsPerLeaf,
	// scaleSpines and scaleLinksPerSpine fix.
	AccessGbps []float64

	Scheme Scheme

	// Duration is each cell's arrival window; MaxFlows bounds each cell
	// (the knob that keeps a 256-leaf sweep minutes, not hours).
	Duration time.Duration
	MaxFlows int

	Seed uint64

	// Parallel is copied into every cell Configs expands
	// (FCTConfig.Parallel), which is how a single space-parallel cell is
	// built; RunScaleStream refuses it, since its sweep already runs cells
	// in parallel.
	Parallel int
}

// The per-leaf shape of every scale cell: 4 hosts, and 4 spines × 2 links
// = 8 uplinks at the access rate, inside the 16-entry LBTag space.
const (
	scaleHostsPerLeaf  = 4
	scaleSpines        = 4
	scaleLinksPerSpine = 2
)

func (c ScaleConfig) withDefaults() ScaleConfig {
	if len(c.Leaves) == 0 {
		c.Leaves = []int{64, 128, 256}
	}
	if len(c.AccessGbps) == 0 {
		c.AccessGbps = []float64{40, 100}
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
					Spines:        scaleSpines,
					HostsPerLeaf:  scaleHostsPerLeaf,
					LinksPerSpine: scaleLinksPerSpine,
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
				Hosts:      leaves * scaleHostsPerLeaf,
				AccessGbps: gbps,
			})
		}
	}
	return cfgs, pts
}

// RunScaleStream executes the sweep across the parallel runner (one
// engine, one network and one set of pools per cell) and returns points in
// grid order. emit, when non-nil, fires once per cell in grid order as soon
// as it (and all earlier cells) have finished. The sweep already runs its
// cells in parallel, so Parallel is only for building a single cell through
// Configs; RunScaleStream refuses Parallel > 1.
func RunScaleStream(cfg ScaleConfig, emit func(i int, p ScalePoint, err error)) ([]ScalePoint, error) {
	if cfg.Parallel > 1 {
		return nil, fmt.Errorf("conga: ScaleConfig.Parallel=%d is not supported by RunScaleStream: the sweep already runs its cells in parallel, and Parallel only builds a single cell through Configs; leave Parallel at 0 or 1", cfg.Parallel)
	}
	cfgs, pts := cfg.withDefaults().expand()
	results, err := runner.MapStream(0, cfgs, RunFCT, func(i int, r *FCTResult, err error) {
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
