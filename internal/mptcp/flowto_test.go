package mptcp

import (
	"testing"

	"conga/internal/sim"
	"conga/internal/tcp"
)

// TestStartFlowToLeavesReceiversBound: an MPTCP flow toward receivers the
// caller bound at consecutive ports completes, delivers every byte to
// them, and leaves all of them bound afterwards.
func TestStartFlowToLeavesReceiversBound(t *testing.T) {
	eng, n := testNet(t)
	cfg := testConfig()
	src, dst := n.Host(0), n.Host(4)
	const base, size = 1 << 25, 1 << 20
	recvs := make([]*tcp.Receiver, cfg.Subflows)
	for i := range recvs {
		recvs[i] = tcp.NewReceiver(dst, base+i)
	}
	done := false
	NewPool().StartFlowTo(eng, src, 100, dst.ID, base, size, cfg, func(f *Flow, _ sim.Time) {
		done = f.Conn.Acked() == size
	})
	eng.Run(sim.MaxTime)
	var delivered int64
	for _, r := range recvs {
		delivered += r.Delivered()
	}
	if !done || delivered != size {
		t.Fatalf("done %v, receivers hold %d of %d bytes", done, delivered, size)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a caller-owned receiver was unbound at completion")
		}
	}()
	tcp.NewReceiver(dst, base) // still bound → Bind panics
}

// TestPoolDiscardsWrongShapeConnection pins the recycling rule: a pooled
// connection is reused only if it has receivers exactly when the caller
// wants them owned. Asked for the other kind, the pool discards it — it
// must never rebind a receiver the connection does not have, nor leave
// owned receivers dangling on a sender-only transfer — and the counters
// say so.
func TestPoolDiscardsWrongShapeConnection(t *testing.T) {
	eng, n := testNet(t)
	cfg := testConfig()
	src, dst := n.Host(0), n.Host(4)
	const base = 1 << 25
	for i := 0; i < 2*cfg.Subflows; i++ {
		tcp.NewReceiver(dst, base+i)
	}
	pool := NewPool()
	run := func(full bool, id uint64, portBase int) *Connection {
		var conn *Connection
		grab := func(f *Flow, _ sim.Time) { conn = f.Conn }
		if full {
			pool.StartFlow(eng, src, dst, id, 50_000, cfg, grab)
		} else {
			pool.StartFlowTo(eng, src, id, dst.ID, portBase, 50_000, cfg, grab)
		}
		eng.Run(sim.MaxTime)
		if conn == nil {
			t.Fatalf("flow %d did not complete", id)
		}
		return conn
	}
	steps := []struct {
		full              bool
		wantSame          bool // reuses the previous step's connection
		allocs, recycled  uint64
		wantReceiverCount int
	}{
		{full: true, allocs: 1, recycled: 0, wantReceiverCount: cfg.Subflows},
		{full: false, allocs: 2, recycled: 0, wantReceiverCount: 0}, // full one discarded
		{full: false, wantSame: true, allocs: 2, recycled: 1, wantReceiverCount: 0},
		{full: true, allocs: 3, recycled: 1, wantReceiverCount: cfg.Subflows}, // sender-only one discarded
		{full: true, wantSame: true, allocs: 3, recycled: 2, wantReceiverCount: cfg.Subflows},
	}
	var prev *Connection
	for i, st := range steps {
		// Sender-only steps alternate between the two pre-bound port bands.
		c := run(st.full, uint64(100+16*i), base+(i%2)*cfg.Subflows)
		if (c == prev) != st.wantSame {
			t.Errorf("step %d: reused previous connection = %v, want %v", i, c == prev, st.wantSame)
		}
		if len(c.receivers) != st.wantReceiverCount {
			t.Errorf("step %d: connection has %d receivers, want %d", i, len(c.receivers), st.wantReceiverCount)
		}
		if pool.ConnAllocs != st.allocs || pool.ConnRecycled != st.recycled {
			t.Errorf("step %d: ConnAllocs %d ConnRecycled %d, want %d and %d",
				i, pool.ConnAllocs, pool.ConnRecycled, st.allocs, st.recycled)
		}
		prev = c
	}
}
