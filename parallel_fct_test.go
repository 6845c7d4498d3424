package conga

import (
	"testing"
	"time"
)

// scaleCell returns the FCTConfig of one 40G scale-sweep cell at the given
// fabric width, sized down for test runtime.
func scaleCell(leaves, maxFlows int, dur time.Duration) FCTConfig {
	return FCTConfig{
		Topology: Topology{
			Leaves: leaves, Spines: 4, HostsPerLeaf: 4, LinksPerSpine: 2,
			AccessGbps: 40, FabricGbps: 40,
		},
		Scheme:    SchemeCONGA,
		Workload:  WorkloadEnterprise,
		Load:      0.6,
		Transport: TransportConfig{MinRTO: 10 * time.Millisecond},
		Duration:  dur,
		MaxFlows:  maxFlows,
		Seed:      7,
	}
}

// TestParallelMatchesSequential checks that a space-parallel run offers the
// identical workload to the sequential run — flow for flow, the same
// (ID, size) list, all completing — and lands within the accepted
// normalized-FCT band. Completion times are deterministic per domain count
// but not equal across counts: same-timestamp events in different domains
// interleave differently, and with several domains every receiver stays
// bound for the whole run at a pre-assigned port (see run.inject), so flows
// hash onto different paths and a late retransmit is re-ACKed rather than
// dropped at a closed port.
func TestParallelMatchesSequential(t *testing.T) {
	seqCfg := scaleCell(8, 200, 4*time.Millisecond)
	seqCfg.CollectFlows = true
	seq, err := RunFCT(seqCfg)
	if err != nil {
		t.Fatal(err)
	}

	parCfg := seqCfg
	parCfg.Parallel = 4
	par, err := RunFCT(parCfg)
	if err != nil {
		t.Fatal(err)
	}

	if par.Generated != seq.Generated {
		t.Fatalf("generated: parallel %d, sequential %d", par.Generated, seq.Generated)
	}
	if seq.Completed != seq.Generated || len(par.FlowFCTs) != len(seq.FlowFCTs) {
		t.Fatalf("completed: parallel %d, sequential %d of %d generated", len(par.FlowFCTs), seq.Completed, seq.Generated)
	}
	for i, s := range seq.FlowFCTs {
		if p := par.FlowFCTs[i]; p.ID != s.ID || p.Size != s.Size {
			t.Fatalf("flow %d: parallel (id %d, %d B), sequential (id %d, %d B)", i, p.ID, p.Size, s.ID, s.Size)
		}
	}
	if seq.NormFCT <= 0 || par.NormFCT <= 0 {
		t.Fatalf("norm FCT: parallel %v, sequential %v", par.NormFCT, seq.NormFCT)
	}
	// At this test's 200-flow scale the band is loose; TestDeterminismGolden
	// pins the 256-leaf cell's NormFCT exactly at each domain count.
	if diff := par.NormFCT/seq.NormFCT - 1; diff > 0.10 || diff < -0.10 {
		t.Fatalf("norm FCT drifted %+.2f%%: parallel %v, sequential %v",
			diff*100, par.NormFCT, seq.NormFCT)
	}
}

// runParallelVector runs one parallel experiment and returns its per-flow
// (ID, size, FCT) vector sorted by flow ID.
func runParallelVector(t *testing.T, cfg FCTConfig, workers int) []FlowFCT {
	t.Helper()
	cfg.Parallel = workers
	cfg.CollectFlows = true
	res, err := RunFCT(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FlowFCTs) != res.Completed {
		t.Fatalf("CollectFlows kept %d flows, result reports %d", len(res.FlowFCTs), res.Completed)
	}
	return res.FlowFCTs
}

// TestParallelRejectsUnsupportedOptions checks the fail-fast validation:
// every option that structurally needs a single engine is rejected with an
// error explaining the sequential alternative, and a partition wider than
// the fabric is impossible.
func TestParallelRejectsUnsupportedOptions(t *testing.T) {
	base := scaleCell(8, 50, time.Millisecond)
	cases := []struct {
		name string
		mut  func(*FCTConfig)
	}{
		{"imbalance", func(c *FCTConfig) { c.CollectImbalance = true }},
		{"queues", func(c *FCTConfig) { c.CollectQueues = true }},
		{"trace", func(c *FCTConfig) { c.Telemetry = &TelemetryOptions{Trace: true} }},
		{"hub", func(c *FCTConfig) { c.Telemetry = &TelemetryOptions{Hub: NewTelemetryHub()} }},
		{"too-wide", func(c *FCTConfig) { c.Parallel = c.Topology.Leaves + 1 }},
	}
	for _, tc := range cases {
		cfg := base
		cfg.Parallel = 2
		tc.mut(&cfg)
		if _, err := RunFCT(cfg); err == nil {
			t.Errorf("%s: expected an error, got none", tc.name)
		}
	}
}

// TestParallelMPTCP exercises the split MPTCP path (pre-bound subflow
// receivers, sender-side half connections) end to end and its determinism.
func TestParallelMPTCP(t *testing.T) {
	cfg := scaleCell(8, 80, 2*time.Millisecond)
	cfg.Scheme = SchemeMPTCPMarker
	a := runParallelVector(t, cfg, 4)
	b := runParallelVector(t, cfg, 4)
	if len(a) == 0 {
		t.Fatal("no MPTCP flows completed")
	}
	if len(a) != len(b) {
		t.Fatalf("run lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("flow %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestParallelTelemetryCounters checks that counters-and-series telemetry —
// the probes that are supported in parallel mode — can be enabled without
// perturbing results: per-flow FCT vectors with telemetry on and off are
// identical, and TCP counters aggregate across the per-domain shards.
func TestParallelTelemetryCounters(t *testing.T) {
	cfg := scaleCell(8, 80, 2*time.Millisecond)
	plain := runParallelVector(t, cfg, 4)

	cfg.Telemetry = &TelemetryOptions{Counters: true, Series: true}
	cfg.Parallel = 4
	cfg.CollectFlows = true
	res, err := RunFCT(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != len(res.FlowFCTs) {
		t.Fatalf("telemetry changed completion count: %d vs %d", len(plain), len(res.FlowFCTs))
	}
	for i := range plain {
		if plain[i] != res.FlowFCTs[i] {
			t.Fatalf("telemetry perturbed flow %d: %+v vs %+v", i, plain[i], res.FlowFCTs[i])
		}
	}
	if res.Telemetry == nil {
		t.Fatal("telemetry registry missing from result")
	}
	enq, deq, _, _ := res.Telemetry.LinkTotals()
	if enq == 0 || deq == 0 {
		t.Fatalf("link counters empty: enqueues=%d dequeues=%d", enq, deq)
	}
	tot := res.Telemetry.TCPTotals()
	if tot.Retransmits != res.Retransmits || tot.Timeouts != res.Timeouts {
		t.Fatalf("per-domain TCP shards did not aggregate: telemetry (%d retx, %d timeouts), result (%d, %d)",
			tot.Retransmits, tot.Timeouts, res.Retransmits, res.Timeouts)
	}
}
