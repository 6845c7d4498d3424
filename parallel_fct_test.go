package conga

import (
	"strings"
	"testing"
	"time"

	"conga/internal/replay"
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

// TestParallelRejectsUnsupportedOptions checks the fail-fast validation:
// every option the space-parallel engine does not carry across domains is
// refused up front with an error that names it and says to run
// sequentially, and a partition wider than the fabric is impossible.
func TestParallelRejectsUnsupportedOptions(t *testing.T) {
	base := scaleCell(8, 50, time.Millisecond)
	cases := []struct {
		name, want string
		mut        func(*FCTConfig)
	}{
		{"mptcp scheme", "Scheme mptcp", func(c *FCTConfig) { c.Scheme = SchemeMPTCPMarker }},
		{"mptcp transport", "TransportMPTCP", func(c *FCTConfig) { c.Transport.Kind = TransportMPTCP }},
		{"counters", "Telemetry", func(c *FCTConfig) { c.Telemetry = &TelemetryOptions{} }},
		{"trace", "Telemetry", func(c *FCTConfig) { c.Telemetry = &TelemetryOptions{Trace: true} }},
		{"decision trace", "Telemetry", func(c *FCTConfig) {
			c.Telemetry = &TelemetryOptions{Decisions: true, DecisionTrace: true}
		}},
		{"record", "Record", func(c *FCTConfig) { c.Record = true }},
		{"replay", "Replay", func(c *FCTConfig) { c.Replay = &replay.Trace{} }},
		{"queues", "CollectQueues", func(c *FCTConfig) { c.CollectQueues = true }},
		{"imbalance", "CollectImbalance", func(c *FCTConfig) { c.CollectImbalance = true }},
		{"too-wide", "domains exceed", func(c *FCTConfig) { c.Parallel = c.Topology.Leaves + 1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			cfg.Parallel = 2
			tc.mut(&cfg)
			_, err := RunFCT(cfg)
			switch {
			case err == nil:
				t.Fatal("accepted")
			case !strings.Contains(err.Error(), tc.want):
				t.Fatalf("error %q does not name %q", err, tc.want)
			case tc.name != "too-wide" && !strings.Contains(err.Error(), "run it sequentially"):
				t.Fatalf("error %q does not say to run sequentially", err)
			}
		})
	}
}
