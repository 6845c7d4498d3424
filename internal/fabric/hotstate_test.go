package fabric

import (
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"conga/internal/core"
	"conga/internal/sim"
	"conga/internal/telemetry"
)

// TestPacketLayout pins the layout of DESIGN.md §3.10 so a later field
// addition cannot silently undo it. A packet is exactly three cache lines:
// the node a pop reads and the link its firing follows fill the first; every
// field a switch or link reads on a hop lies in the second, which ends where
// the span Engine.Run and Link.drain prefetch at a packet's node
// (prefetch.Lines2) ends, so one hint covers the whole hop; the end-host
// transport state fills the third. 192 bytes is also a Go size class, so
// every pooled packet starts on a line boundary; a field that pushed Packet
// into the 208-, 224- or 240-byte class would leave most packets straddling
// four lines and fails the alignment check below. The node opens the
// packet, which is what lets nodePacket turn a queued node back into it.
func TestPacketLayout(t *testing.T) {
	if s := unsafe.Sizeof(Packet{}); s != 192 {
		t.Errorf("Packet is %d bytes, want exactly 192 (three cache lines)", s)
	}
	if off := unsafe.Offsetof(Packet{}.ev); off != 0 {
		t.Errorf("Packet.ev at byte %d, want 0: nodePacket casts a node to its packet", off)
	}
	line := map[string]uintptr{
		"ev": 0, "link": 0,
		"lbHash": 1, "DstHost": 1, "Payload": 1, "SrcLeaf": 1, "DstLeaf": 1, "Hdr": 1,
		"IsAck": 1, "pooled": 1, "SackN": 1, "train": 1, "FlowID": 1, "SrcHost": 1, "DstPort": 1,
		"SrcPort": 2, "Seq": 2, "AckNo": 2, "Sack": 2, "EchoTS": 2, "SentAt": 2,
	}
	typ := reflect.TypeOf(Packet{})
	for i := range typ.NumField() {
		f := typ.Field(i)
		want, ok := line[f.Name]
		if !ok {
			t.Errorf("field %s is in no line of the layout", f.Name)
			continue
		}
		if f.Offset/64 != want || (f.Offset+f.Type.Size()-1)/64 != want {
			t.Errorf("field %s spans bytes [%d, %d), want it within line %d [%d, %d)",
				f.Name, f.Offset, f.Offset+f.Type.Size(), want+1, want*64, want*64+64)
		}
	}

	var pool PacketPool
	kept := make([]*Packet, 1000)
	for i := range kept {
		kept[i] = pool.Get()
		if a := uintptr(unsafe.Pointer(kept[i])); a%64 != 0 {
			t.Fatalf("pooled packet %d at %#x is not 64-byte aligned", i, a)
		}
	}
	runtime.KeepAlive(kept)
}

// reachModel is the test's own record of which cables it pulled, from which
// it derives PathUsable by definition — uplink up, and some parallel link
// from that spine down to the destination up — without consulting the
// fabric's links or its cache.
type reachModel struct {
	cfg  Config
	down map[[3]int]bool // (leaf, spine, k) failed
}

func (m *reachModel) usable(leaf, dst, uplink int) bool {
	s, k := uplink/m.cfg.LinksPerSpine, uplink%m.cfg.LinksPerSpine
	if m.down[[3]int{leaf, s, k}] {
		return false
	}
	for kk := 0; kk < m.cfg.LinksPerSpine; kk++ {
		if !m.down[[3]int{dst, s, kk}] {
			return true
		}
	}
	return false
}

func (m *reachModel) check(t *testing.T, n *Network, step int, leaf, dst int) {
	t.Helper()
	got := n.Leaves[leaf].PathUsable(dst)
	for u := range got {
		if want := m.usable(leaf, dst, u); got[u] != want {
			t.Fatalf("step %d: leaf %d → leaf %d uplink %d usable = %v, want %v (down: %v)",
				step, leaf, dst, u, got[u], want, m.down)
		}
	}
}

// TestPathUsableCacheMatchesDefinition applies random FailLink/RestoreLink
// sequences and compares the cached rows with the model. Between changes
// only a few random rows are read, so most rows sit stale across several
// generations before their next use; every so often all rows are checked.
// The scripted prefix covers the two structural cases: every parallel link
// from one spine to one leaf down (the spine is withdrawn for that
// destination only), and every uplink of a leaf down.
func TestPathUsableCacheMatchesDefinition(t *testing.T) {
	cfg := smallTestConfig(SchemeECMP)
	cfg.NumLeaves, cfg.NumSpines, cfg.LinksPerSpine = 4, 3, 2
	n := MustNetwork(sim.New(), cfg)
	m := &reachModel{cfg: cfg, down: map[[3]int]bool{}}
	set := func(leaf, spine, k int, fail bool) {
		if fail {
			n.FailLink(leaf, spine, k)
		} else {
			n.RestoreLink(leaf, spine, k)
		}
		m.down[[3]int{leaf, spine, k}] = fail
	}
	checkAll := func(step int) {
		for leaf := range n.Leaves {
			for dst := range n.Leaves {
				m.check(t, n, step, leaf, dst)
			}
		}
	}

	checkAll(-1)
	set(2, 1, 0, true)
	set(2, 1, 1, true) // spine 1 has no link left to leaf 2
	checkAll(-2)
	if u := n.Leaves[0].PathUsable(2); u[2] || u[3] || !u[0] || !u[4] {
		t.Fatalf("spine 1 not withdrawn toward leaf 2: %v", u)
	}
	if u := n.Leaves[0].PathUsable(3); !u[2] || !u[3] {
		t.Fatalf("spine 1 withdrawn toward leaf 3 too: %v", u)
	}
	for s := 0; s < cfg.NumSpines; s++ {
		for k := 0; k < cfg.LinksPerSpine; k++ {
			set(1, s, k, true) // leaf 1 is cut off entirely
		}
	}
	checkAll(-3)
	for _, ok := range n.Leaves[1].PathUsable(0) {
		if ok {
			t.Fatal("isolated leaf still reports a usable uplink")
		}
	}
	for _, ok := range n.Leaves[0].PathUsable(1) {
		if ok {
			t.Fatal("a leaf reports a path to an isolated leaf")
		}
	}

	rng := sim.NewRand(11)
	for step := 0; step < 2000; step++ {
		leaf, s, k := rng.Intn(cfg.NumLeaves), rng.Intn(cfg.NumSpines), rng.Intn(cfg.LinksPerSpine)
		set(leaf, s, k, !m.down[[3]int{leaf, s, k}])
		for i := 0; i < 3; i++ {
			m.check(t, n, step, rng.Intn(cfg.NumLeaves), rng.Intn(cfg.NumLeaves))
		}
		if step%97 == 0 {
			checkAll(step)
		}
	}
	checkAll(2000)
}

// TestStickyFlowletMovesWhenPathLost fails, mid-run, the spine downlink
// behind the uplink a live flowlet is riding. The uplink itself stays up,
// so only the reachability row says the path is gone: the very next packet
// must take it from a recomputed row, leave the sticky port and move. Only
// packets already past the leaf when the cable went may be lost.
func TestStickyFlowletMovesWhenPathLost(t *testing.T) {
	eng := sim.New()
	n := MustNetwork(eng, smallTestConfig(SchemeCONGA))
	sink := &testSink{}
	dst := n.Hosts[4]
	dst.Bind(7777, sink)
	flood(eng, n, 1, n.Hosts[0], dst, 7777, 1000, 5e8, 0, 300*sim.Microsecond)

	ls := n.Leaves[0]
	var riding int
	var txAtFail [2]uint64
	var rxAtFail int
	eng.At(100*sim.Microsecond, func(sim.Time) {
		a, b := ls.uplinks[0].txPackets, ls.uplinks[1].txPackets // started, not yet all serialized
		if (a == 0) == (b == 0) {
			t.Fatalf("one flowlet should ride one uplink before the failure, tx = %d/%d", a, b)
		}
		if b > 0 {
			riding = 1
		}
		n.Spines[ls.uplinkSpine[riding]].down[1][0].SetUp(false)
		txAtFail = [2]uint64{a, b}
		rxAtFail = sink.packets
	})
	eng.Run(400 * sim.Microsecond)

	if got := ls.uplinks[riding].txPackets; got != txAtFail[riding] {
		t.Fatalf("uplink %d carried %d more packets after its path was lost", riding, got-txAtFail[riding])
	}
	if got := ls.uplinks[1-riding].TxPackets(); got == 0 {
		t.Fatal("flow never moved to the surviving uplink")
	}
	if sink.packets <= rxAtFail {
		t.Fatal("no deliveries after the failure")
	}
	// At 50% load at most one packet is on the uplink and one on the
	// spine's downlink at any instant.
	if lost := int(n.Hosts[0].out.TxPackets()) - sink.packets; lost > 2 {
		t.Fatalf("%d packets lost; only those in flight past the leaf may be", lost)
	}
	if cs := ls.strategy.(*congaStrategy).leaf; cs.Moves == 0 {
		t.Fatal("leaf recorded no move")
	}
}

// dropViews is every place a link's drops are visible, plus its transmit
// totals and what reached the sink.
type dropViews struct {
	drops, dropBytes uint64
	telDrops, traced uint64 // zero when unobserved
	tx, txBytes      uint64
	queued           int // queue length when the link failed
	delivered        int
}

// runSetUpDropScenario drives two hosts at line rate into leaf 0's only
// uplink (same rate), so that at 200 µs it holds a queue and a packet on
// the wire, fails it there and keeps sending into the dead link. observed
// attaches counters and a packet trace.
func runSetUpDropScenario(t *testing.T, observed bool) dropViews {
	t.Helper()
	eng := sim.New()
	cfg := smallTestConfig(SchemeCONGA)
	cfg.NumSpines = 1
	if observed {
		cfg.Telemetry = telemetry.New(telemetry.Options{Trace: true, TraceCap: 1 << 16})
	}
	n := MustNetwork(eng, cfg)
	up := n.Leaves[0].uplinks[0]
	sink := &testSink{}
	n.Hosts[4].Bind(900, sink)
	flood(eng, n, 1, n.Hosts[0], n.Hosts[4], 900, 1400, 1e9, 0, sim.Millisecond)
	flood(eng, n, 2, n.Hosts[1], n.Hosts[4], 900, 1400, 1e9, 0, sim.Millisecond)

	var v dropViews
	eng.At(200*sim.Microsecond, func(now sim.Time) {
		v.queued = up.queued()
		if v.queued == 0 || up.serSize == 0 || !up.claimed(now) {
			t.Fatalf("scenario needs a queue and a packet in service: queued %d", v.queued)
		}
		up.SetUp(false)
	})
	eng.Run(2 * sim.Millisecond)

	v.drops, v.dropBytes, v.tx, v.txBytes = up.Drops, up.DropBytes, up.TxPackets(), up.TxBytes()
	v.delivered = sink.packets
	if observed {
		v.telDrops = up.tel.Drops
		cfg.Telemetry.Trace().Each(func(ev telemetry.TraceEvent) {
			if ev.Kind == telemetry.TraceDrop && ev.Where == up.Name {
				v.traced++
			}
		})
	}
	return v
}

// TestSetUpDropAccountingAgrees fails a link holding a queue and a packet
// mid-serialization and requires the four views of its drops — Drops,
// DropBytes, the telemetry counter and the packet trace — to tell the same
// story: the flushed queue, the packet killed on the wire, and everything
// sent into the dead link afterwards, each counted once in every view. The
// link's own totals are pinned to what PR 12's discrete transmit path
// counted, and observing the run must not change them.
func TestSetUpDropAccountingAgrees(t *testing.T) {
	v := runSetUpDropScenario(t, true)
	if v.drops != v.telDrops || v.drops != v.traced {
		t.Fatalf("drop views disagree: Drops %d, telemetry %d, trace %d", v.drops, v.telDrops, v.traced)
	}
	if v.drops < uint64(v.queued)+1 {
		t.Fatalf("Drops = %d, want at least the %d flushed + 1 on the wire", v.drops, v.queued)
	}
	// Every packet of the two flows has the same fabric wire size.
	wire := uint64(1400 + HeaderOverhead + core.EncapOverhead)
	if v.dropBytes != v.drops*wire {
		t.Fatalf("DropBytes = %d, want %d drops × %d bytes", v.dropBytes, v.drops, wire)
	}
	// The wire victim is both counted as transmitted and dropped; every
	// other transmitted packet reached the sink.
	if uint64(v.delivered)+1 != v.tx {
		t.Fatalf("uplink transmitted %d, sink got %d + 1 killed on the wire", v.tx, v.delivered)
	}

	v.telDrops, v.traced = 0, 0
	want := dropViews{drops: 17, dropBytes: 25704, tx: 16, txBytes: 24192, queued: 16, delivered: 15}
	if v != want {
		t.Fatalf("observed run %+v, the discrete link counted %+v", v, want)
	}
	if plain := runSetUpDropScenario(t, false); plain != want {
		t.Fatalf("unobserved run %+v differs from observed %+v", plain, want)
	}
}
