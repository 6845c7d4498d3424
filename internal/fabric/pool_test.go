package fabric

import (
	"testing"

	"conga/internal/sim"
)

func TestPoolGetPutRecycles(t *testing.T) {
	pp := &PacketPool{}
	p := pp.Get()
	if pp.Allocs != 1 || pp.Recycled != 0 {
		t.Fatalf("after first Get: Allocs=%d Recycled=%d", pp.Allocs, pp.Recycled)
	}
	p.Payload = 1460
	p.SackN = 2
	pp.Put(p)
	q := pp.Get()
	if q != p {
		t.Fatal("Get did not reuse the released packet")
	}
	if pp.Recycled != 1 {
		t.Fatalf("Recycled = %d, want 1", pp.Recycled)
	}
	if q.Payload != 0 || q.SackN != 0 {
		t.Fatalf("recycled packet not zeroed: Payload=%d SackN=%d", q.Payload, q.SackN)
	}
}

func TestPoolIgnoresForeignAndDoubleRelease(t *testing.T) {
	pp := &PacketPool{}
	// Foreign packets (tests construct them directly) must never be
	// recycled under their owner's feet.
	foreign := &Packet{Payload: 99}
	pp.Put(foreign)
	if pp.freeCount() != 0 {
		t.Fatal("foreign packet entered the pool")
	}
	if foreign.Payload != 99 {
		t.Fatal("foreign packet was zeroed")
	}
	// Double release is a no-op: Put clears the pooled mark.
	p := pp.Get()
	pp.Put(p)
	pp.Put(p)
	if pp.freeCount() != 1 {
		t.Fatalf("double Put produced %d free entries, want 1", pp.freeCount())
	}
	// Nil pool (links built outside a Network) degrades to plain allocation.
	var nilPool *PacketPool
	if nilPool.Get() == nil {
		t.Fatal("nil pool Get returned nil")
	}
	nilPool.Put(&Packet{})
}

// TestPoolRecyclesThroughFabric drives a real network and checks that the
// packet population stabilizes: after warm-up, deliveries are served from
// recycled packets rather than fresh allocations.
func TestPoolRecyclesThroughFabric(t *testing.T) {
	eng := sim.New()
	n := MustNetwork(eng, smallTestConfig(SchemeECMP))
	src, dst := n.Host(0), n.Host(4)
	dst.Bind(9000, &testSink{})
	const count = 500
	sent := 0
	var tick sim.Event
	tick = func(now sim.Time) {
		p := src.NewPacket()
		p.FlowID = 1
		p.DstHost = dst.ID
		p.DstPort = 9000
		p.Payload = 1460
		p.SentAt = now
		src.Send(p, now)
		sent++
		if sent < count {
			eng.After(100*sim.Microsecond, tick)
		}
	}
	eng.At(0, tick)
	eng.Run(sim.MaxTime)
	pp := n.Pool()
	if pp.Allocs == 0 {
		t.Fatal("pool never allocated")
	}
	if pp.Recycled == 0 {
		t.Fatal("pool never recycled: packets are not being released")
	}
	// Packets are spaced far wider than their one-way latency, so the
	// steady-state population is a handful and recycles must dominate.
	if pp.Allocs > 50 {
		t.Fatalf("%d allocations for %d sequential packets; releases are leaking", pp.Allocs, count)
	}
}
