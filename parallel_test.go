package conga

import (
	"testing"
	"time"

	"conga/internal/runner"
)

// TestParallelPoolsIsolated drives nine engines — TCP, MPTCP and CONGA
// transports mixed — across eight workers at once, each run recycling
// flows through its own per-engine tcp.FlowPool and mptcp.Pool, and
// requires results identical to sequential execution. Under `make race`
// this is the proof that the pools are engine-private: any sharing of a
// free list, a recycled Sender, or a port table across engines shows up
// as a race or a result divergence here.
func TestParallelPoolsIsolated(t *testing.T) {
	topo := Topology{Leaves: 2, Spines: 2, HostsPerLeaf: 4, LinksPerSpine: 1,
		AccessGbps: 10, FabricGbps: 10}
	var cfgs []FCTConfig
	for _, s := range []Scheme{SchemeECMP, SchemeCONGA, SchemeMPTCPMarker} {
		for seed := uint64(1); seed <= 3; seed++ {
			cfgs = append(cfgs, FCTConfig{
				Topology:  topo,
				Scheme:    s,
				Workload:  WorkloadEnterprise,
				Load:      0.5,
				Duration:  10 * time.Millisecond,
				MaxFlows:  120,
				Transport: TransportConfig{MinRTO: 10 * time.Millisecond},
				Seed:      seed,
			})
		}
	}
	seq := make([]*FCTResult, len(cfgs))
	for i, cfg := range cfgs {
		r, err := RunFCT(cfg)
		if err != nil {
			t.Fatal(err)
		}
		seq[i] = r
	}
	par, err := runner.MapStream(8, cfgs, RunFCT, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfgs {
		if seq[i].Events != par[i].Events || seq[i].NormFCT != par[i].NormFCT {
			t.Fatalf("config %d (%s seed %d): pooled parallel run diverged: events %d vs %d, normFCT %v vs %v",
				i, seq[i].Scheme, cfgs[i].Seed, seq[i].Events, par[i].Events, seq[i].NormFCT, par[i].NormFCT)
		}
	}
}
