package conga

import (
	"testing"
	"time"
)

// quickTopo is a scaled-down testbed for fast integration tests: fewer
// hosts and 1/10 link speeds keep event counts low while preserving the
// 2:1 oversubscription and all mechanisms.
func quickTopo() Topology {
	return Topology{
		Leaves: 2, Spines: 2, HostsPerLeaf: 8, LinksPerSpine: 2,
		AccessGbps: 1, FabricGbps: 4,
	}
}

// skipSingleGoroutine skips, under -short, a test whose simulations all run
// one engine on the test's own goroutine: no runner, no Parallel > 1.
// -short is what `make race` runs, and the race detector has nothing to
// check in such a test.
func skipSingleGoroutine(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("one engine on the test goroutine, nothing for the race detector; plain go test runs it")
	}
}

func quickFCT(scheme Scheme, w Workload, load float64) FCTConfig {
	return FCTConfig{
		Topology: quickTopo(),
		Scheme:   scheme,
		Workload: w,
		Load:     load,
		Duration: 30 * time.Millisecond,
		MaxFlows: 400,
		Transport: TransportConfig{
			MinRTO: 10 * time.Millisecond,
		},
		Seed: 42,
	}
}

func TestRunFCTBasics(t *testing.T) {
	skipSingleGoroutine(t)
	res, err := RunFCT(quickFCT(SchemeCONGA, WorkloadEnterprise, 0.4))
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Fatal("no flows completed")
	}
	if float64(res.Completed) < 0.9*float64(res.Generated) {
		t.Fatalf("only %d/%d flows completed", res.Completed, res.Generated)
	}
	if res.AvgFCT <= 0 || res.NormFCT < 1 {
		t.Fatalf("nonsense FCT stats: avg=%v norm=%v", res.AvgFCT, res.NormFCT)
	}
	if res.Scheme != "conga" || res.Workload != "enterprise" {
		t.Fatalf("labels wrong: %q %q", res.Scheme, res.Workload)
	}
}

func TestRunFCTAllSchemesComplete(t *testing.T) {
	skipSingleGoroutine(t)
	for _, s := range []Scheme{SchemeECMP, SchemeCONGA, SchemeCONGAFlow, SchemeLocal, SchemeSpray, SchemeMPTCPMarker} {
		cfg := quickFCT(s, WorkloadEnterprise, 0.3)
		cfg.MaxFlows = 120
		res, err := RunFCT(cfg)
		if err != nil {
			t.Fatalf("%s: %v", SchemeName(s), err)
		}
		if res.Completed < res.Generated*8/10 {
			t.Fatalf("%s: %d/%d flows completed", SchemeName(s), res.Completed, res.Generated)
		}
	}
}

func TestRunFCTDeterministic(t *testing.T) {
	skipSingleGoroutine(t)
	a, err := RunFCT(quickFCT(SchemeCONGA, WorkloadDataMining, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFCT(quickFCT(SchemeCONGA, WorkloadDataMining, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if a.AvgFCT != b.AvgFCT || a.Completed != b.Completed || a.Drops != b.Drops {
		t.Fatalf("same seed, different results: %+v vs %+v", a, b)
	}
}

func TestRunFCTSeedChangesOutcome(t *testing.T) {
	skipSingleGoroutine(t)
	cfg := quickFCT(SchemeECMP, WorkloadEnterprise, 0.5)
	a, _ := RunFCT(cfg)
	cfg.Seed = 99
	b, _ := RunFCT(cfg)
	if a.AvgFCT == b.AvgFCT && a.Generated == b.Generated {
		t.Fatal("different seeds produced identical runs")
	}
}

// TestLinkFailureCONGABeatsECMP is the paper's headline result (§5.2.2,
// Figure 11) in miniature: with one fabric link down and load past the
// point where ECMP's static split saturates the surviving link, CONGA's
// congestion-aware split must deliver much better FCTs.
func TestLinkFailureCONGABeatsECMP(t *testing.T) {
	skipSingleGoroutine(t)
	base := quickTopo()
	base.FailedLinks = [][3]int{{1, 1, 1}} // one of leaf1-spine1's two links
	run := func(s Scheme) *FCTResult {
		cfg := quickFCT(s, WorkloadEnterprise, 0.60)
		cfg.Topology = base
		cfg.Duration = 40 * time.Millisecond
		cfg.MaxFlows = 600
		res, err := RunFCT(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ecmp := run(SchemeECMP)
	conga := run(SchemeCONGA)
	if conga.Completed < ecmp.Completed {
		t.Fatalf("CONGA completed fewer flows (%d) than ECMP (%d)", conga.Completed, ecmp.Completed)
	}
	if conga.NormFCT >= ecmp.NormFCT {
		t.Fatalf("CONGA norm FCT %.2f not better than ECMP %.2f under failure",
			conga.NormFCT, ecmp.NormFCT)
	}
}

func TestRunFCTCollectors(t *testing.T) {
	skipSingleGoroutine(t)
	cfg := quickFCT(SchemeECMP, WorkloadEnterprise, 0.5)
	cfg.CollectImbalance = true
	cfg.CollectQueues = true
	res, err := RunFCT(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ImbalanceCDF) == 0 {
		t.Fatal("imbalance CDF empty")
	}
	if len(res.QueueCDFs) != 16 { // 2 leaves × 2 spines × 2 links × 2 dirs
		t.Fatalf("%d queue CDFs, want 16", len(res.QueueCDFs))
	}
	if res.HotspotQueueCDF == nil {
		t.Fatal("no hotspot queue CDF")
	}
}

// TestImbalanceOrdering reproduces Figure 12's ordering: CONGA balances
// leaf uplinks better than ECMP (lower throughput imbalance).
func TestImbalanceOrdering(t *testing.T) {
	skipSingleGoroutine(t)
	run := func(s Scheme) float64 {
		cfg := quickFCT(s, WorkloadDataMining, 0.6)
		cfg.CollectImbalance = true
		cfg.Duration = 60 * time.Millisecond
		cfg.MaxFlows = 800
		res, err := RunFCT(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.ImbalanceCDF == nil {
			t.Fatal("no imbalance data")
		}
		return res.ImbalanceMean
	}
	ecmp := run(SchemeECMP)
	conga := run(SchemeCONGA)
	if conga >= ecmp {
		t.Fatalf("CONGA imbalance %.3f not lower than ECMP %.3f", conga, ecmp)
	}
}

func TestOptimalFCTMonotone(t *testing.T) {
	tr := TransportConfig{}.withDefaults()
	prev := time.Duration(0)
	for _, size := range []int64{1, 1000, 100 << 10, 1 << 20, 100 << 20} {
		o := OptimalFCT(Topology{}, tr, size)
		if o <= prev {
			t.Fatalf("OptimalFCT not increasing at %d: %v ≤ %v", size, o, prev)
		}
		prev = o
	}
	// A 10 MB flow at 10 Gbps is ≥ 8 ms.
	if o := OptimalFCT(Topology{}, tr, 10<<20); o < 8*time.Millisecond {
		t.Fatalf("OptimalFCT(10MB) = %v, want ≥ 8ms", o)
	}
}

func TestRunIncastTCPHealthyAtModerateFanout(t *testing.T) {
	skipSingleGoroutine(t)
	res, err := RunIncast(IncastConfig{
		Topology:     quickTopo(),
		Scheme:       SchemeCONGA,
		Transport:    TransportConfig{MinRTO: time.Millisecond},
		Fanout:       8,
		RequestBytes: 2 << 20,
		Rounds:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletedRounds != 3 {
		t.Fatalf("completed %d rounds, want 3", res.CompletedRounds)
	}
	if res.GoodputFraction < 0.5 {
		t.Fatalf("TCP incast goodput %.2f at fanout 8, want ≥ 0.5", res.GoodputFraction)
	}
}

// TestIncastMPTCPWorseThanTCP checks Figure 13's core claim: at high
// fan-in, MPTCP's 8× subflows overflow the client port and TCP+CONGA
// sustains higher goodput.
func TestIncastMPTCPWorseThanTCP(t *testing.T) {
	skipSingleGoroutine(t)
	run := func(kind Transport) float64 {
		topo := quickTopo()
		// Pressure regime of the paper's testbed: at fanout 14 the
		// client port buffer absorbs TCP's synchronized burst but not
		// MPTCP's 8×-subflow version of it.
		topo.EdgeBufBytes = 1 << 20
		res, err := RunIncast(IncastConfig{
			Topology:     topo,
			Scheme:       SchemeCONGA,
			Transport:    TransportConfig{Kind: kind, MinRTO: 200 * time.Millisecond},
			Fanout:       14,
			RequestBytes: 4 << 20,
			Rounds:       3,
			Timeout:      60 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.GoodputFraction
	}
	tcpG := run(TransportTCP)
	mptcpG := run(TransportMPTCP)
	if mptcpG >= tcpG {
		t.Fatalf("MPTCP goodput %.2f not worse than TCP %.2f in incast", mptcpG, tcpG)
	}
}

func TestRunIncastRejectsExcessFanout(t *testing.T) {
	_, err := RunIncast(IncastConfig{Topology: quickTopo(), Fanout: 16})
	if err == nil {
		t.Fatal("fanout = host count accepted")
	}
}

func TestFigure2Shapes(t *testing.T) {
	skipSingleGoroutine(t)
	ecmp, err := RunFigure2(SchemeECMP, 1)
	if err != nil {
		t.Fatal(err)
	}
	conga, err := RunFigure2(SchemeCONGA, 1)
	if err != nil {
		t.Fatal(err)
	}
	// CONGA must deliver close to the 15 Gbps capacity and clearly more
	// than ECMP's static split.
	if conga.TotalGbps < 14 {
		t.Fatalf("CONGA total %.2f Gbps, want ≈ 15", conga.TotalGbps)
	}
	if conga.TotalGbps < ecmp.TotalGbps*1.1 {
		t.Fatalf("CONGA %.2f not ≥ 10%% better than ECMP %.2f", conga.TotalGbps, ecmp.TotalGbps)
	}
	// And the split through the spines must approach 2:1.
	ratio := conga.SpineGbps[0] / conga.SpineGbps[1]
	if ratio < 1.5 || ratio > 2.6 {
		t.Fatalf("CONGA spine split %.2f:1, want ≈ 2:1", ratio)
	}
}

func TestFigure3TrafficMatrixSensitivity(t *testing.T) {
	skipSingleGoroutine(t)
	// Without L0 traffic, CONGA spreads L1→L2 over both spines; with L0
	// traffic on the shared S0→L2 link, CONGA shifts L1's share toward
	// S1. Static weights cannot do both (§2.4).
	quiet, err := RunFigure3(SchemeCONGA, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	busy, err := RunFigure3(SchemeCONGA, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	quietS0 := quiet.LeafUplinkGbps[1][0]
	busyS0 := busy.LeafUplinkGbps[1][0]
	if busyS0 >= quietS0 {
		t.Fatalf("L1's spine-0 share did not shrink under L0 pressure: %.2f → %.2f", quietS0, busyS0)
	}
}

// TestSchemeNameIncludesMPTCP: SchemeName names every scheme, the MPTCP
// marker included, and ParseScheme reads each name back.
func TestSchemeNameIncludesMPTCP(t *testing.T) {
	if SchemeName(SchemeMPTCPMarker) != "mptcp" || SchemeName(SchemeCONGA) != "conga" {
		t.Fatal("scheme naming broken")
	}
	for _, s := range AllSchemes() {
		if got, err := ParseScheme(SchemeName(s)); got != s || err != nil {
			t.Errorf("ParseScheme(%q) = %v, %v; want %v", SchemeName(s), got, err, s)
		}
	}
}

func TestWorkloadDistNames(t *testing.T) {
	for _, w := range []Workload{WorkloadEnterprise, WorkloadDataMining, WorkloadWebSearch} {
		if w.Dist().Name() != w.String() {
			t.Fatalf("workload %v and dist %q disagree", w, w.Dist().Name())
		}
	}
}
