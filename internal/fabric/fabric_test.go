package fabric

import (
	"testing"

	"conga/internal/core"
	"conga/internal/sim"
)

// testSink counts delivered packets and bytes.
type testSink struct {
	packets int
	bytes   int64
	lastSeq int64
	reorder int
}

func (s *testSink) Receive(p *Packet, _ sim.Time) {
	s.packets++
	s.bytes += int64(p.Payload)
	if p.Seq < s.lastSeq {
		s.reorder++
	}
	s.lastSeq = p.Seq
}

// flood sends fixed-size packets of one flow at a constant rate from src to
// dst, bypassing any transport (a UDP blaster).
func flood(eng *sim.Engine, net *Network, flowID uint64, src, dst *Host, dstPort int,
	payload int, rateBps float64, start, stop sim.Time) {
	interval := sim.Time(float64(payload+HeaderOverhead) * 8 / rateBps * float64(sim.Second))
	var seq int64
	var send func(now sim.Time)
	send = func(now sim.Time) {
		if now >= stop {
			return
		}
		p := &Packet{
			FlowID: flowID, DstHost: dst.ID, SrcPort: int(flowID), DstPort: int32(dstPort),
			Seq: seq, Payload: int32(payload), SentAt: now,
		}
		seq += int64(payload)
		src.Send(p, now)
		eng.At(now+interval, send)
	}
	eng.At(start, send)
}

func smallTestConfig(scheme Scheme) Config {
	p := core.DefaultParams()
	p.FlowletTableSize = 4096
	return Config{
		NumLeaves:     2,
		NumSpines:     2,
		HostsPerLeaf:  4,
		LinksPerSpine: 1,
		AccessRateBps: 1e9,
		FabricRateBps: 1e9,
		Scheme:        scheme,
		Params:        p,
		Seed:          7,
	}
}

func TestNetworkConstruction(t *testing.T) {
	eng := sim.New()
	n := MustNetwork(eng, smallTestConfig(SchemeCONGA))
	if len(n.Hosts) != 8 || len(n.Leaves) != 2 || len(n.Spines) != 2 {
		t.Fatalf("topology sizes: %d hosts, %d leaves, %d spines",
			len(n.Hosts), len(n.Leaves), len(n.Spines))
	}
	if got := len(n.Leaves[0].Uplinks()); got != 2 {
		t.Fatalf("leaf 0 has %d uplinks, want 2", got)
	}
	if got := len(n.FabricLinks()); got != 8 {
		t.Fatalf("%d fabric links, want 8 (2 leaves × 2 spines × 2 dirs)", got)
	}
	for i, h := range n.Hosts {
		if h.ID != i {
			t.Fatalf("host %d has ID %d", i, h.ID)
		}
		if want := i / 4; h.Leaf != want {
			t.Fatalf("host %d on leaf %d, want %d", i, h.Leaf, want)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{NumLeaves: 1},
		{NumSpines: -1},
		{HostsPerLeaf: -1},
		{NumSpines: 9, LinksPerSpine: 2}, // 18 uplinks > 16 LBTags
	}
	for i, cfg := range bad {
		if _, err := NewNetwork(sim.New(), cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestCrossLeafDelivery(t *testing.T) {
	eng := sim.New()
	n := MustNetwork(eng, smallTestConfig(SchemeECMP))
	src, dst := n.Host(0), n.Host(4) // different leaves
	sink := &testSink{}
	dst.Bind(5000, sink)
	flood(eng, n, 1, src, dst, 5000, 1000, 1e8, 0, 10*sim.Millisecond)
	eng.Run(12 * sim.Millisecond)
	if sink.packets == 0 {
		t.Fatal("no packets delivered across the fabric")
	}
	// ~10ms at 1e8 bps with 1058B frames → ~118 packets.
	if sink.packets < 100 || sink.packets > 130 {
		t.Fatalf("delivered %d packets, want ≈118", sink.packets)
	}
	if sink.reorder != 0 {
		t.Fatalf("%d reordered packets on a single path", sink.reorder)
	}
	if n.TotalDrops() != 0 {
		t.Fatalf("%d drops on an uncongested path", n.TotalDrops())
	}
}

func TestIntraLeafDeliveryBypassesFabric(t *testing.T) {
	eng := sim.New()
	n := MustNetwork(eng, smallTestConfig(SchemeECMP))
	src, dst := n.Host(0), n.Host(1) // same leaf
	sink := &testSink{}
	dst.Bind(5000, sink)
	flood(eng, n, 1, src, dst, 5000, 1000, 1e8, 0, 5*sim.Millisecond)
	eng.Run(6 * sim.Millisecond)
	if sink.packets == 0 {
		t.Fatal("no local delivery")
	}
	for _, l := range n.FabricLinks() {
		if l.TxPackets() != 0 {
			t.Fatalf("intra-rack traffic leaked onto fabric link %s", l.Name)
		}
	}
}

func TestDeliveryLatency(t *testing.T) {
	eng := sim.New()
	cfg := smallTestConfig(SchemeECMP)
	n := MustNetwork(eng, cfg)
	src, dst := n.Host(0), n.Host(4)
	var arrival sim.Time
	dst.Bind(5000, recvFunc(func(p *Packet, now sim.Time) { arrival = now }))
	p := &Packet{FlowID: 9, DstHost: dst.ID, DstPort: 5000, Payload: 1000}
	eng.At(0, func(now sim.Time) { src.Send(p, now) })
	eng.Run(sim.MaxTime)

	// Expected: 4 hops. Access hops serialize 1058 B, fabric hops 1112 B
	// (encap) at 1 Gbps; prop = 2+1+1+2 µs.
	wire := float64(p.WireSize()*8) / 1e9
	fwire := float64(p.FabricWireSize()*8) / 1e9
	want := sim.Time((2*wire+2*fwire)*1e9) + 6*sim.Microsecond
	if arrival < want-sim.Microsecond || arrival > want+sim.Microsecond {
		t.Fatalf("one-way latency %v, want ≈%v", arrival, want)
	}
}

type recvFunc func(p *Packet, now sim.Time)

func (f recvFunc) Receive(p *Packet, now sim.Time) { f(p, now) }

func TestDropTailQueueOverflow(t *testing.T) {
	eng := sim.New()
	cfg := smallTestConfig(SchemeECMP)
	cfg.EdgeBufBytes = 10000 // tiny buffer
	n := MustNetwork(eng, cfg)
	src, dst := n.Host(0), n.Host(4)
	sink := &testSink{}
	dst.Bind(5000, sink)
	// Two hosts under leaf 0 send full-rate to one receiver: its access
	// downlink is 2:1 oversubscribed and must drop.
	flood(eng, n, 1, src, dst, 5000, 1000, 1e9, 0, 5*sim.Millisecond)
	flood(eng, n, 2, n.Host(1), dst, 5000, 1000, 1e9, 0, 5*sim.Millisecond)
	eng.Run(6 * sim.Millisecond)
	down := n.Leaves[1].Downlink(dst.ID)
	if down.Drops == 0 {
		t.Fatal("oversubscribed downlink dropped nothing")
	}
	if down.QueuedBytes() > cfg.EdgeBufBytes {
		t.Fatalf("queue %d exceeded cap %d", down.QueuedBytes(), cfg.EdgeBufBytes)
	}
	if sink.packets == 0 {
		t.Fatal("everything dropped")
	}
}

func TestECMPFlowStickiness(t *testing.T) {
	eng := sim.New()
	n := MustNetwork(eng, smallTestConfig(SchemeECMP))
	ls := n.Leaves[0]
	p := &Packet{FlowID: 77, SrcHost: 0, DstHost: 4, SrcPort: 1, DstPort: 2}
	first := ls.Strategy().SelectUplink(p, 1, 0)
	for i := 0; i < 50; i++ {
		if got := ls.Strategy().SelectUplink(p, 1, sim.Time(i)); got != first {
			t.Fatalf("ECMP moved flow from uplink %d to %d", first, got)
		}
	}
}

func TestECMPSpreadsFlows(t *testing.T) {
	eng := sim.New()
	n := MustNetwork(eng, smallTestConfig(SchemeECMP))
	ls := n.Leaves[0]
	counts := map[int]int{}
	for f := uint64(0); f < 1000; f++ {
		p := &Packet{FlowID: f, SrcHost: 0, DstHost: 4, SrcPort: int(f), DstPort: 2}
		counts[ls.Strategy().SelectUplink(p, 1, 0)]++
	}
	if len(counts) != 2 || counts[0] < 350 || counts[1] < 350 {
		t.Fatalf("ECMP spread skewed: %v", counts)
	}
	_ = eng
}

func TestECMPAvoidsFailedUplink(t *testing.T) {
	eng := sim.New()
	n := MustNetwork(eng, smallTestConfig(SchemeECMP))
	n.FailLink(0, 0, 0) // leaf 0's uplink to spine 0
	ls := n.Leaves[0]
	for f := uint64(0); f < 100; f++ {
		p := &Packet{FlowID: f, SrcHost: 0, DstHost: 4, SrcPort: int(f), DstPort: 2}
		if got := ls.Strategy().SelectUplink(p, 1, 0); got != 1 {
			t.Fatalf("ECMP picked failed uplink %d", got)
		}
	}
}

func TestSprayRoundRobins(t *testing.T) {
	eng := sim.New()
	n := MustNetwork(eng, smallTestConfig(SchemeSpray))
	ls := n.Leaves[0]
	p := &Packet{FlowID: 1, DstHost: 4}
	a := ls.Strategy().SelectUplink(p, 1, 0)
	b := ls.Strategy().SelectUplink(p, 1, 0)
	c := ls.Strategy().SelectUplink(p, 1, 0)
	if a == b || b != ls.Strategy().SelectUplink(p, 1, 0) == false && false {
		t.Fatal("unreachable")
	}
	if a == b || a != c {
		t.Fatalf("spray sequence %d,%d,%d not round-robin", a, b, c)
	}
	_ = eng
}

func TestWCMPWeights(t *testing.T) {
	eng := sim.New()
	cfg := smallTestConfig(SchemeWCMP)
	cfg.WCMPWeights = []float64{2, 1} // uplink 0 gets 2/3 of flows
	n := MustNetwork(eng, cfg)
	ls := n.Leaves[0]
	counts := map[int]int{}
	for f := uint64(0); f < 3000; f++ {
		p := &Packet{FlowID: f, SrcHost: 0, DstHost: 4, SrcPort: int(f)}
		counts[ls.Strategy().SelectUplink(p, 1, 0)]++
	}
	frac := float64(counts[0]) / 3000
	if frac < 0.62 || frac > 0.71 {
		t.Fatalf("WCMP uplink 0 got %.2f of flows, want ≈0.67 (%v)", frac, counts)
	}
	_ = eng
}

func TestFailLinkPanicsOutOfRange(t *testing.T) {
	n := MustNetwork(sim.New(), smallTestConfig(SchemeECMP))
	defer func() {
		if recover() == nil {
			t.Error("FailLink out of range did not panic")
		}
	}()
	n.FailLink(0, 5, 0)
}

func TestFailAndRestoreLink(t *testing.T) {
	n := MustNetwork(sim.New(), smallTestConfig(SchemeECMP))
	n.FailLink(0, 1, 0)
	if n.Leaves[0].Uplinks()[1].Up() {
		t.Fatal("uplink still up after FailLink")
	}
	if n.Spines[1].Downlinks(0)[0].Up() {
		t.Fatal("downlink still up after FailLink")
	}
	n.RestoreLink(0, 1, 0)
	if !n.Leaves[0].Uplinks()[1].Up() {
		t.Fatal("uplink down after RestoreLink")
	}
}

// TestCongaCEMarkingAndFeedback drives the full leaf-to-leaf loop on real
// links: saturating one spine path must raise CE at the receiver, flow back
// as feedback, and appear in the sender's Congestion-To-Leaf table.
func TestCongaCEMarkingAndFeedback(t *testing.T) {
	eng := sim.New()
	cfg := smallTestConfig(SchemeCONGA)
	cfg.NumSpines = 1 // single path: all traffic shares spine 0
	n := MustNetwork(eng, cfg)
	src, dst := n.Host(0), n.Host(4)
	sink := &testSink{}
	dst.Bind(5000, sink)
	// Saturate the 1 Gbps fabric path.
	flood(eng, n, 1, src, dst, 5000, 1400, 0.95e9, 0, 5*sim.Millisecond)
	// Reverse traffic to carry feedback.
	rsink := &testSink{}
	src.Bind(6000, rsink)
	flood(eng, n, 2, dst, src, 6000, 100, 1e7, 0, 5*sim.Millisecond)
	eng.Run(5 * sim.Millisecond)

	srcStrat := n.Leaves[0].Strategy().(*congaStrategy)
	got := srcStrat.Core().ToLeaf.Metrics(1, eng.Now(), make([]uint8, len(n.Leaves[0].Uplinks())))[0]
	if got < 5 {
		t.Fatalf("sender's remote metric for the saturated path = %d, want ≥5", got)
	}
}

// TestCongaAvoidsCongestedRemotePath reproduces the mechanism behind
// Figure 2: with one spine path congested by cross traffic the CONGA leaf
// must steer new flowlets to the other spine.
func TestCongaAvoidsCongestedRemotePath(t *testing.T) {
	eng := sim.New()
	cfg := smallTestConfig(SchemeCONGA)
	// Halve the capacity of the path through spine 1 (the Fig. 2 setup).
	cfg.FabricLinkRate = func(leaf, spine, k int) float64 {
		if spine == 1 {
			return 0.5e9
		}
		return 0
	}
	n := MustNetwork(eng, cfg)
	dst := n.Host(4)
	sink := &testSink{}
	dst.Bind(5000, sink)
	rsink := &testSink{}
	n.Host(0).Bind(6000, rsink)

	// Offer 1.2 Gbps from leaf 0 to leaf 1 across 8 flows (capacity: 1.5
	// Gbps total, 1 + 0.5). A congestion-oblivious split overloads the
	// slow path; CONGA should converge to ~2:1 in favour of spine 0.
	for f := uint64(0); f < 8; f++ {
		flood(eng, n, 10+f, n.Host(0), dst, 5000, 1400, 0.15e9, 0, 20*sim.Millisecond)
	}
	flood(eng, n, 99, dst, n.Host(0), 6000, 100, 1e7, 0, 20*sim.Millisecond)
	eng.Run(20 * sim.Millisecond)

	up := n.Leaves[0].Uplinks()
	fast, slow := float64(up[0].TxBytes()), float64(up[1].TxBytes())
	if fast < slow*1.4 {
		t.Fatalf("CONGA did not favour the fast path: fast=%.0f slow=%.0f bytes", fast, slow)
	}
	// And the slow path must still be used (not starved): optimal is 2:1.
	if slow < fast/8 {
		t.Fatalf("CONGA starved the slow path: fast=%.0f slow=%.0f", fast, slow)
	}
}

func TestSchemeParseRoundTrip(t *testing.T) {
	for _, s := range []Scheme{SchemeECMP, SchemeCONGA, SchemeCONGAFlow, SchemeLocal, SchemeSpray, SchemeWCMP} {
		got, err := ParseScheme(s.String())
		if err != nil || got != s {
			t.Fatalf("ParseScheme(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := ParseScheme("bogus"); err == nil {
		t.Fatal("bogus scheme parsed")
	}
}

func TestHostPortBinding(t *testing.T) {
	n := MustNetwork(sim.New(), smallTestConfig(SchemeECMP))
	h := n.Host(0)
	h.Bind(100, &testSink{})
	defer func() {
		if recover() == nil {
			t.Error("double bind did not panic")
		}
	}()
	h.Bind(100, &testSink{})
}

func TestHostAllocPortSkipsBound(t *testing.T) {
	n := MustNetwork(sim.New(), smallTestConfig(SchemeECMP))
	h := n.Host(0)
	p1 := h.AllocPort()
	h.Bind(p1, &testSink{})
	p2 := h.AllocPort()
	if p1 == p2 {
		t.Fatal("AllocPort returned a bound port")
	}
}

func TestLinkFailureDropsTraffic(t *testing.T) {
	eng := sim.New()
	cfg := smallTestConfig(SchemeECMP)
	cfg.NumSpines = 1
	n := MustNetwork(eng, cfg)
	n.FailLink(0, 0, 0)
	sink := &testSink{}
	n.Host(4).Bind(5000, sink)
	flood(eng, n, 1, n.Host(0), n.Host(4), 5000, 1000, 1e8, 0, sim.Millisecond)
	eng.Run(2 * sim.Millisecond)
	if sink.packets != 0 {
		t.Fatalf("%d packets delivered over a fully failed fabric", sink.packets)
	}
	if n.Leaves[0].NoRouteDrops == 0 {
		t.Fatal("no NoRouteDrops recorded")
	}
}

func TestDREDirtyListDrainsAndReactivates(t *testing.T) {
	eng := sim.New()
	n := MustNetwork(eng, smallTestConfig(SchemeCONGA))
	src, dst := n.Host(0), n.Host(4)
	dst.Bind(5000, &testSink{})
	flood(eng, n, 1, src, dst, 5000, 1000, 1e8, 0, 5*sim.Millisecond)
	eng.Run(5 * sim.Millisecond)
	if len(n.dreActive[0]) == 0 {
		t.Fatal("no fabric links on the DRE dirty-list while carrying traffic")
	}
	// A long idle period must decay every register to exactly zero and
	// empty the dirty-list (the decay ticker snaps and drops drained
	// links).
	eng.Run(100 * sim.Millisecond)
	if got := len(n.dreActive[0]); got != 0 {
		t.Fatalf("%d links still on the dirty-list after 95 ms idle", got)
	}
	for _, l := range n.FabricLinks() {
		if x := l.dre.X(); x != 0 {
			t.Fatalf("link %s register %v after long idle, want exactly 0", l.Name, x)
		}
	}
	// New traffic must re-register links and produce nonzero metrics again.
	flood(eng, n, 2, src, dst, 5000, 1000, 1e8, eng.Now(), eng.Now()+5*sim.Millisecond)
	eng.Run(eng.Now() + 2*sim.Millisecond)
	if len(n.dreActive[0]) == 0 {
		t.Fatal("dirty-list empty while traffic is flowing again")
	}
	any := false
	for _, l := range n.FabricLinks() {
		if l.dre.X() > 0 {
			any = true
		}
	}
	if !any {
		t.Fatal("no fabric link accumulated DRE after reactivation")
	}
}
