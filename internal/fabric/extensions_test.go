package fabric

import (
	"testing"

	"conga/internal/core"
	"conga/internal/sim"
)

// TestExplicitFeedbackWorksWithoutReverseTraffic: under strictly one-way
// traffic, piggybacking has nothing to ride on — the sender's remote
// metrics stay empty. With explicit feedback enabled, the destination leaf
// emits control packets and the sender learns the path congestion anyway.
func TestExplicitFeedbackWorksWithoutReverseTraffic(t *testing.T) {
	run := func(explicit bool) uint8 {
		eng := sim.New()
		cfg := smallTestConfig(SchemeCONGA)
		cfg.NumSpines = 1
		cfg.ExplicitFeedback = explicit
		n := MustNetwork(eng, cfg)
		sink := &testSink{}
		n.Host(4).Bind(5000, sink)
		// One-way saturating flood; no reverse flows at all.
		flood(eng, n, 1, n.Host(0), n.Host(4), 5000, 1400, 0.95e9, 0, 5*sim.Millisecond)
		eng.Run(5 * sim.Millisecond)
		strat := n.Leaves[0].Strategy().(*congaStrategy)
		return strat.Core().ToLeaf.Metrics(1, eng.Now(), make([]uint8, len(n.Leaves[0].Uplinks())))[0]
	}
	withOut := run(false)
	if withOut != 0 {
		t.Fatalf("remote metric learned without reverse traffic or explicit feedback: %d", withOut)
	}
	with := run(true)
	if with < 5 {
		t.Fatalf("explicit feedback did not deliver congestion state: metric %d", with)
	}
}

func TestExplicitFeedbackCountsControlPackets(t *testing.T) {
	eng := sim.New()
	cfg := smallTestConfig(SchemeCONGA)
	cfg.ExplicitFeedback = true
	n := MustNetwork(eng, cfg)
	sink := &testSink{}
	n.Host(4).Bind(5000, sink)
	flood(eng, n, 1, n.Host(0), n.Host(4), 5000, 1400, 0.5e9, 0, 3*sim.Millisecond)
	eng.Run(3 * sim.Millisecond)
	dstStrat := n.Leaves[1].Strategy().(*congaStrategy)
	if dstStrat.CtrlPackets == 0 {
		t.Fatal("destination leaf never emitted explicit feedback")
	}
}

func TestExplicitFeedbackSuppressedByReverseTraffic(t *testing.T) {
	eng := sim.New()
	cfg := smallTestConfig(SchemeCONGA)
	cfg.ExplicitFeedback = true
	n := MustNetwork(eng, cfg)
	sink := &testSink{}
	n.Host(4).Bind(5000, sink)
	rsink := &testSink{}
	n.Host(0).Bind(6000, rsink)
	// Brisk traffic in both directions: piggybacking suffices, so control
	// packets should be rare relative to sweep ticks.
	flood(eng, n, 1, n.Host(0), n.Host(4), 5000, 1400, 0.5e9, 0, 5*sim.Millisecond)
	flood(eng, n, 2, n.Host(4), n.Host(0), 6000, 1400, 0.5e9, 0, 5*sim.Millisecond)
	eng.Run(5 * sim.Millisecond)
	dstStrat := n.Leaves[1].Strategy().(*congaStrategy)
	// 5 ms / Tfl(500µs) = 10 ticks; with reverse traffic flowing every
	// tick should have piggybacked instead.
	if dstStrat.CtrlPackets > 2 {
		t.Fatalf("explicit feedback fired %d times despite reverse traffic", dstStrat.CtrlPackets)
	}
}

// TestPerLeafSchemesMixedFabric: leaf 0 runs CONGA while leaf 1 runs ECMP
// (incremental deployment). Both directions must still deliver traffic and
// the CONGA side must keep its congestion awareness.
func TestPerLeafSchemesMixedFabric(t *testing.T) {
	eng := sim.New()
	cfg := smallTestConfig(SchemeECMP)
	cfg.LeafSchemes = []Scheme{SchemeCONGA, SchemeECMP}
	n := MustNetwork(eng, cfg)
	if n.Leaves[0].Strategy().Name() != "conga" || n.Leaves[1].Strategy().Name() != "ecmp" {
		t.Fatalf("per-leaf schemes not applied: %s / %s",
			n.Leaves[0].Strategy().Name(), n.Leaves[1].Strategy().Name())
	}
	aSink, bSink := &testSink{}, &testSink{}
	n.Host(4).Bind(5000, aSink)
	n.Host(0).Bind(5001, bSink)
	flood(eng, n, 1, n.Host(0), n.Host(4), 5000, 1000, 1e8, 0, 2*sim.Millisecond)
	flood(eng, n, 2, n.Host(4), n.Host(0), 5001, 1000, 1e8, 0, 2*sim.Millisecond)
	eng.Run(3 * sim.Millisecond)
	if aSink.packets == 0 || bSink.packets == 0 {
		t.Fatalf("mixed fabric dropped a direction: %d / %d", aSink.packets, bSink.packets)
	}
}

func TestPerLeafSchemesValidation(t *testing.T) {
	cfg := smallTestConfig(SchemeECMP)
	cfg.LeafSchemes = []Scheme{SchemeECMP, SchemeCONGA, SchemeECMP} // 3 schemes, 2 leaves
	if _, err := NewNetwork(sim.New(), cfg); err == nil {
		t.Fatal("oversized LeafSchemes accepted")
	}
	cfg = smallTestConfig(SchemeECMP)
	cfg.LeafSchemes = []Scheme{Scheme(99)}
	if _, err := NewNetwork(sim.New(), cfg); err == nil {
		t.Fatal("bogus per-leaf scheme accepted")
	}
}

// TestSumPathMetricAccumulates: with PathMetricSum, CE adds up across hops
// instead of taking the max.
func TestSumPathMetricAccumulates(t *testing.T) {
	eng := sim.New()
	cfg := smallTestConfig(SchemeCONGA)
	cfg.NumSpines = 1
	p := core.DefaultParams()
	p.FlowletTableSize = 1024
	p.PathMetric = core.PathMetricSum
	cfg.Params = p
	n := MustNetwork(eng, cfg)

	// Preload both fabric links on the path with metric 3 each.
	up := n.Leaves[0].Uplinks()[0]
	down := n.Spines[0].Downlinks(1)[0]
	scale := up.rate / 8 * p.Tau().Seconds()
	up.dre.Add(int(0.45 * scale))   // metric 3
	down.dre.Add(int(0.45 * scale)) // metric 3

	var seenCE uint8
	orig := n.Leaves[1].strategy
	n.Leaves[1].strategy = &tapStrategy{Strategy: orig,
		probe: &congaProbe{onArrival: func(pk *Packet) { seenCE = pk.Hdr.CE }}}
	sink := &testSink{}
	n.Host(4).Bind(800, sink)
	pk := &Packet{FlowID: 3, DstHost: 4, DstPort: 800, Payload: 100}
	eng.At(0, func(now sim.Time) { n.Host(0).Send(pk, now) })
	eng.Run(sim.MaxTime)
	if seenCE != 6 {
		t.Fatalf("sum-metric CE = %d, want 6 (3+3)", seenCE)
	}
}

func TestMarkCESaturatesAtWireLimit(t *testing.T) {
	if got := core.MarkCE(core.PathMetricSum, 6, 5); got != 7 {
		t.Fatalf("saturating sum = %d, want 7", got)
	}
	if got := core.MarkCE(core.PathMetricMax, 6, 5); got != 6 {
		t.Fatalf("max marking = %d, want 6", got)
	}
}
