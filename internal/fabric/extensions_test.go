package fabric

import (
	"testing"

	"conga/internal/core"
	"conga/internal/sim"
)

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
