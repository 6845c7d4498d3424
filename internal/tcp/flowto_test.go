package tcp

import (
	"testing"

	"conga/internal/fabric"
	"conga/internal/sim"
)

// TestStartFlowToLeavesReceiverBound covers the flow without a receiver
// side: it completes against a receiver the caller bound, leaves that
// receiver bound, recycles the sender's own port, and a late retransmit
// arriving after completion is re-ACKed by the lingering receiver rather
// than dropped at an unbound port.
func TestStartFlowToLeavesReceiverBound(t *testing.T) {
	eng, n := testNet(t, fabric.SchemeECMP)
	pool := NewFlowPool()
	src, dst := n.Host(0), n.Host(4)
	const dstPort, size = 1 << 25, 200_000
	recv := NewReceiver(dst, dstPort)

	var srcPort int
	var fct sim.Time
	f := pool.StartFlowTo(eng, src, 1, dst.ID, dstPort, size, dcConfig(), func(f *Flow, now sim.Time) {
		srcPort, fct = f.Sender.srcPort, f.FCT(now)
	})
	if f.Receiver != nil {
		t.Fatal("StartFlowTo attached a receiver to the flow")
	}
	eng.Run(sim.MaxTime)
	if fct <= 0 || recv.Delivered() != size {
		t.Fatalf("flow incomplete: fct %v, delivered %d of %d", fct, recv.Delivered(), size)
	}

	// The sender's port is free again: binding it must not panic. The probe
	// stands in for the closed sender and watches for the re-ACK.
	var reAck int64 = -1
	src.Bind(srcPort, recvProbe(func(p *fabric.Packet) {
		if p.IsAck {
			reAck = p.AckNo
		}
	}))
	late := src.NewPacket()
	late.FlowID, late.DstHost, late.SrcPort, late.DstPort = 1, dst.ID, srcPort, dstPort
	late.Seq, late.Payload = 0, 1460
	src.Send(late, eng.Now())
	eng.Run(sim.MaxTime)
	if recv.DupSegments != 1 || reAck != size {
		t.Fatalf("late retransmit: receiver counted %d duplicates and re-ACKed %d, want 1 and %d",
			recv.DupSegments, reAck, size)
	}

	// The shell recycles through the same free list as a full flow, and a
	// full flow started from it gets (and later closes) its own receiver.
	g := pool.StartFlow(eng, src, dst, 2, 10_000, dcConfig(), nil)
	if g != f || g.Receiver == nil {
		t.Fatalf("recycled shell %p (was %p) receiver %v", g, f, g.Receiver)
	}
	ownPort := g.Sender.dstPort
	eng.Run(sim.MaxTime)
	if pool.FlowAllocs != 1 || pool.FlowRecycled != 1 {
		t.Fatalf("FlowAllocs %d FlowRecycled %d, want 1 and 1", pool.FlowAllocs, pool.FlowRecycled)
	}
	// The caller's receiver outlived both flows; the pooled one is unbound.
	if recv.Delivered() != size {
		t.Fatal("caller-owned receiver was reset")
	}
	dst.Bind(ownPort, recvProbe(func(*fabric.Packet) {})) // panics if still bound
}

// TestStartFlowPortOrder pins the allocation order every recorded result
// depends on: the destination port first, then the sender's source port —
// visible when both ends are the same host's port space.
func TestStartFlowPortOrder(t *testing.T) {
	eng, n := testNet(t, fabric.SchemeECMP)
	h := n.Host(0)
	first := h.AllocPort()
	f := NewFlowPool().StartFlow(eng, h, h, 1, 1000, dcConfig(), nil)
	if dst, src := f.Sender.dstPort, f.Sender.srcPort; dst != first+1 || src != first+2 {
		t.Fatalf("ports after %d: destination %d, source %d; want %d then %d", first, dst, src, first+1, first+2)
	}
}
