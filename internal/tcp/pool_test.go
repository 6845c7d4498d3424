package tcp

import (
	"testing"

	"conga/internal/fabric"
	"conga/internal/sim"
)

// flowRecord captures everything observable about one completed flow, for
// bit-identical comparison between fresh-allocation and recycled runs.
type flowRecord struct {
	fct   sim.Time
	stats Stats
	rcvd  int64
}

// runMeasuredFlows starts three flows host0→host4 at fixed absolute times
// and returns their records. The caller controls whether the pool is warm
// (objects recycle) or cold (every flow allocates fresh); either way the
// measured flows use the same hosts, flow IDs, ports and start times, so
// the records must match exactly.
func runMeasuredFlows(t *testing.T, eng *sim.Engine, n *fabric.Network, pool *FlowPool) []flowRecord {
	t.Helper()
	sizes := []int64{1 << 20, 200_000, 50_000}
	recs := make([]flowRecord, len(sizes))
	got := 0
	for i, size := range sizes {
		i, size := i, size
		at := 100*sim.Millisecond + sim.Time(i)*sim.Millisecond
		eng.At(at, func(now sim.Time) {
			pool.StartFlow(eng, n.Host(0), n.Host(4), uint64(11+i), size, dcConfig(),
				func(f *Flow, done sim.Time) {
					recs[i] = flowRecord{fct: f.FCT(done), stats: f.Sender.Stats(), rcvd: f.Receiver.Delivered()}
					got++
				})
		})
	}
	eng.Run(sim.MaxTime)
	if got != len(sizes) {
		t.Fatalf("only %d of %d measured flows completed", got, len(sizes))
	}
	return recs
}

// TestRecycledFlowsBitIdentical is the pool's reset-invariant regression
// test: a flow running on recycled Sender/Receiver/Flow objects must be
// indistinguishable from one on freshly allocated objects. The warm run
// first cycles flows through the pool on *other* hosts (1→5), so the
// measured hosts' port sequences are untouched and any difference can only
// come from state leaking through recycling.
func TestRecycledFlowsBitIdentical(t *testing.T) {
	run := func(warm bool) ([]flowRecord, *FlowPool) {
		eng, n := testNet(t, fabric.SchemeECMP)
		pool := NewFlowPool()
		if warm {
			done := 0
			for i := 0; i < 4; i++ {
				pool.StartFlow(eng, n.Host(1), n.Host(5), uint64(900+i), 64<<10, dcConfig(),
					func(*Flow, sim.Time) { done++ })
			}
			eng.Run(80 * sim.Millisecond)
			if done != 4 {
				t.Fatalf("warm-up: %d of 4 flows completed", done)
			}
		}
		return runMeasuredFlows(t, eng, n, pool), pool
	}

	fresh, _ := run(false)
	warm, pool := run(true)
	if pool.FlowRecycled == 0 || pool.SenderRecycled == 0 || pool.ReceiverRecycled == 0 {
		t.Fatalf("warm run did not recycle: flows %d senders %d receivers %d",
			pool.FlowRecycled, pool.SenderRecycled, pool.ReceiverRecycled)
	}
	for i := range fresh {
		if fresh[i] != warm[i] {
			t.Errorf("flow %d: fresh %+v != recycled %+v", i, fresh[i], warm[i])
		}
	}
}

// TestPoolSteadyStateAllocationFree proves the tentpole claim directly:
// once the pools (flow, packet, event) are warm, a complete flow lifecycle
// — start, slow-start, data transfer, close, recycle — performs zero heap
// allocations.
func TestPoolSteadyStateAllocationFree(t *testing.T) {
	eng, n := testNet(t, fabric.SchemeECMP)
	pool := NewFlowPool()
	cfg := dcConfig()
	done := false
	onDone := func(*Flow, sim.Time) { done = true } // hoisted: the lifecycle under test must not charge for the caller's closure
	runOne := func() {
		done = false
		pool.StartFlow(eng, n.Host(0), n.Host(4), 7, 256<<10, cfg, onDone)
		eng.Run(sim.MaxTime)
		if !done {
			t.Fatal("flow did not complete")
		}
	}
	for i := 0; i < 3; i++ {
		runOne() // warm the free lists and the engine's wheel
	}
	if allocs := testing.AllocsPerRun(10, runOne); allocs > 0 {
		t.Fatalf("steady-state flow lifecycle allocates %.1f objects/op, want 0", allocs)
	}
}

// TestPoolRefusesLiveEndpoints checks the pool's ownership guards: a
// sender or receiver that is still open must not enter the free list, and
// a double put must not alias one object into two slots.
func TestPoolRefusesLiveEndpoints(t *testing.T) {
	eng, n := testNet(t, fabric.SchemeECMP)
	pool := NewFlowPool()
	cfg := dcConfig()

	port := n.Host(4).AllocPort()
	r := pool.NewReceiver(n.Host(4), port)
	s := pool.NewSender(eng, n.Host(0), 1, n.Host(4).ID, port, cfg)

	pool.PutSender(s) // still open: must be refused
	pool.PutReceiver(r)
	s2 := pool.NewSender(eng, n.Host(0), 2, n.Host(4).ID, port+1000, cfg)
	if s2 == s {
		t.Fatal("pool recycled a sender that was still open")
	}
	r2 := pool.NewReceiver(n.Host(4), port+1000)
	if r2 == r {
		t.Fatal("pool recycled a receiver that was still bound")
	}

	s.Close()
	r.Close()
	pool.PutSender(s)
	pool.PutSender(s) // double put: second must be a no-op
	a := pool.NewSender(eng, n.Host(0), 3, n.Host(4).ID, port+2000, cfg)
	b := pool.NewSender(eng, n.Host(0), 4, n.Host(4).ID, port+3000, cfg)
	if a == b {
		t.Fatal("double put aliased one sender into two live endpoints")
	}
	if a != s {
		t.Fatal("closed sender was not recycled")
	}
}

// TestRebindPanicsOnOpenEndpoint: Rebind is only legal on a closed
// endpoint — rebinding a live one would orphan its bound port and timers.
func TestRebindPanicsOnOpenEndpoint(t *testing.T) {
	eng, n := testNet(t, fabric.SchemeECMP)
	cfg := dcConfig()
	port := n.Host(4).AllocPort()
	NewReceiver(n.Host(4), port)
	s := NewSender(eng, n.Host(0), 1, n.Host(4).ID, port, cfg)
	defer func() {
		if recover() == nil {
			t.Fatal("Rebind of an open sender did not panic")
		}
	}()
	s.Rebind(eng, n.Host(0), 2, n.Host(4).ID, port+1, cfg)
}
