package conga

import (
	"testing"
	"time"
)

func TestRunHDFSCompletes(t *testing.T) {
	skipSingleGoroutine(t)
	res, err := RunHDFS(HDFSConfig{
		Topology:       quickTopo(),
		Scheme:         SchemeCONGA,
		Transport:      TransportConfig{MinRTO: 10 * time.Millisecond},
		Writers:        8,
		BytesPerWriter: 1 << 20,
		BlockBytes:     256 << 10,
		DiskMBps:       200,
		BackgroundLoad: 0.2,
		Timeout:        20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("HDFS job did not complete")
	}
	if res.JobCompletion <= 0 || res.JobCompletion > 20*time.Second {
		t.Fatalf("job completion %v out of range", res.JobCompletion)
	}
	if res.Blocks != 8*4 {
		t.Fatalf("%d blocks, want 32", res.Blocks)
	}
	if res.BackgroundFlows == 0 {
		t.Fatal("no background traffic generated")
	}
}

func TestRunHDFSDeterministic(t *testing.T) {
	skipSingleGoroutine(t)
	cfg := HDFSConfig{
		Topology:       quickTopo(),
		Scheme:         SchemeECMP,
		Writers:        4,
		BytesPerWriter: 512 << 10,
		BlockBytes:     128 << 10,
		DiskMBps:       200,
		Seed:           7,
	}
	a, err := RunHDFS(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunHDFS(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.JobCompletion != b.JobCompletion {
		t.Fatalf("same seed, different job times: %v vs %v", a.JobCompletion, b.JobCompletion)
	}
}

// TestHDFSFailureDegradesECMPMore is the Figure 14 shape at test scale.
func TestHDFSFailureDegradesECMPMore(t *testing.T) {
	skipSingleGoroutine(t)
	// Paper-rate links matter here: at 10G the DRE metrics discriminate
	// paths; at toy 1G rates the whole fabric saturates into bufferbloat
	// and every scheme thrashes alike.
	run := func(s Scheme, seed uint64) time.Duration {
		topo := Topology{Leaves: 2, Spines: 2, HostsPerLeaf: 8, LinksPerSpine: 2,
			AccessGbps: 10, FabricGbps: 20,
			FailedLinks: [][3]int{{1, 1, 1}}}
		res, err := RunHDFS(HDFSConfig{
			Topology:       topo,
			Scheme:         s,
			Transport:      TransportConfig{MinRTO: 10 * time.Millisecond},
			Writers:        16,
			BytesPerWriter: 2 << 20,
			BlockBytes:     512 << 10,
			DiskMBps:       2000, // network-bound
			BackgroundLoad: 0.45,
			Seed:           seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.JobCompletion
	}
	var ecmpFail, congaFail time.Duration
	for seed := uint64(1); seed <= 3; seed++ {
		ecmpFail += run(SchemeECMP, seed)
		congaFail += run(SchemeCONGA, seed)
	}
	if float64(congaFail) > float64(ecmpFail)*1.15 {
		t.Fatalf("CONGA slower than ECMP on the degraded fabric: %v vs %v", congaFail, ecmpFail)
	}
}

func TestRunFigure2WCMPBetweenECMPAndCONGA(t *testing.T) {
	skipSingleGoroutine(t)
	// Static weights tuned to this topology (2:1) should beat ECMP but a
	// traffic-matrix change would break them (Figure 3); here just check
	// WCMP lands in a sane range.
	w, err := RunFigure2(SchemeWCMP, 1)
	if err != nil {
		t.Fatal(err)
	}
	e, err := RunFigure2(SchemeECMP, 1)
	if err != nil {
		t.Fatal(err)
	}
	if w.TotalGbps < e.TotalGbps*0.95 {
		t.Fatalf("WCMP (%.2f) collapsed below ECMP (%.2f)", w.TotalGbps, e.TotalGbps)
	}
}

func TestOptimalFCTJumboFramesFaster(t *testing.T) {
	std := TransportConfig{MTU: 1500}.withDefaults()
	jumbo := TransportConfig{MTU: 9000}.withDefaults()
	size := int64(10 << 20)
	if OptimalFCT(Topology{}, jumbo, size) >= OptimalFCT(Topology{}, std, size) {
		t.Fatal("jumbo frames did not reduce the optimal FCT (less header overhead)")
	}
}

func TestTransportConfigDefaults(t *testing.T) {
	tc := TransportConfig{}.withDefaults()
	if tc.MTU != 1500 || tc.MinRTO != 200*time.Millisecond || tc.Subflows != 8 {
		t.Fatalf("defaults wrong: %+v", tc)
	}
	c := tc.tcpConfig()
	if c.MSS != 1460 {
		t.Fatalf("MSS = %d", c.MSS)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSchemeForFabricMapsMPTCP(t *testing.T) {
	s, tr, err := schemeForFabric(SchemeMPTCPMarker, TransportTCP)
	if err != nil || s != SchemeECMP || tr != TransportMPTCP {
		t.Fatalf("MPTCP marker mapping: %v %v %v", s, tr, err)
	}
	if _, _, err := schemeForFabric(Scheme(42), TransportTCP); err == nil {
		t.Fatal("bogus scheme accepted")
	}
}

func TestRunFCTRejectsBadScheme(t *testing.T) {
	_, err := RunFCT(FCTConfig{Scheme: Scheme(42), Load: 0.5})
	if err == nil {
		t.Fatal("bad scheme accepted")
	}
}

func TestRunFCTWCMPWithWeights(t *testing.T) {
	skipSingleGoroutine(t)
	cfg := quickFCT(SchemeWCMP, WorkloadEnterprise, 0.3)
	cfg.WCMPWeights = []float64{1, 1, 1, 1}
	cfg.MaxFlows = 100
	res, err := RunFCT(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Fatal("WCMP run completed nothing")
	}
}

// TestCONGAFlowOneDecisionPerFlow: with the 13 ms timeout, a flow's
// packets all take one path — verified indirectly by zero reordering even
// under congestion-driven re-decisions.
func TestCONGAFlowStillBeatsECMPUnderFailure(t *testing.T) {
	skipSingleGoroutine(t)
	topo := quickTopo()
	topo.FailedLinks = [][3]int{{1, 1, 1}}
	run := func(s Scheme) float64 {
		cfg := quickFCT(s, WorkloadEnterprise, 0.6)
		cfg.Topology = topo
		cfg.Duration = 40 * time.Millisecond
		cfg.MaxFlows = 500
		r, err := RunFCT(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r.NormFCT
	}
	ecmp := run(SchemeECMP)
	cflow := run(SchemeCONGAFlow)
	// CONGA-Flow makes congestion-aware per-flow decisions: it must not
	// be (meaningfully) worse than congestion-oblivious ECMP.
	if cflow > ecmp*1.10 {
		t.Fatalf("CONGA-Flow (%.2f) worse than ECMP (%.2f) under failure", cflow, ecmp)
	}
}

func TestAllSchemesList(t *testing.T) {
	if len(AllSchemes()) != 7 {
		t.Fatalf("AllSchemes has %d entries", len(AllSchemes()))
	}
}

func TestWorkloadStringUnknown(t *testing.T) {
	if Workload(99).String() == "" {
		t.Fatal("unknown workload produced empty name")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Dist() on unknown workload did not panic")
		}
	}()
	Workload(99).Dist()
}

func TestIncastResultDropsAtClientPort(t *testing.T) {
	skipSingleGoroutine(t)
	topo := quickTopo()
	topo.EdgeBufBytes = 256 << 10
	res, err := RunIncast(IncastConfig{
		Topology:     topo,
		Scheme:       SchemeECMP,
		Transport:    TransportConfig{MinRTO: time.Millisecond},
		Fanout:       12,
		RequestBytes: 3 << 20,
		Rounds:       2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Drops == 0 {
		t.Fatal("incast into a 256KB port buffer dropped nothing")
	}
	if res.Timeouts == 0 {
		t.Fatal("incast produced no RTOs despite drops")
	}
}
