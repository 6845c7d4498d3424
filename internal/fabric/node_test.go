package fabric

import (
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"conga/internal/core"
	"conga/internal/sim"
)

func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if r := recover(); r == nil {
			t.Fatalf("no panic, want one mentioning %q", want)
		} else if msg, _ := r.(string); !strings.Contains(msg, want) {
			t.Fatalf("panic %v, want one mentioning %q", r, want)
		}
	}()
	fn()
}

// pipe is one 8 Gb/s link with 700 ns of propagation into a logging node:
// a 1442-byte payload serializes in 1500 ns and arrives 2200 ns after it
// starts.
func pipe(eng *sim.Engine, pool *PacketPool, log *[]modelRec) *Link {
	return NewLink(eng, LinkConfig{Name: "pipe", RateBps: 8e9, PropDelay: 700 * sim.Nanosecond,
		BufBytes: 1 << 20, Params: core.DefaultParams(), Pool: pool}, recNode{log})
}

// TestReleasingPendingPacketPanics covers the ownership rule the embedded
// node adds: a packet on the wire belongs to the engine's queue until its
// arrival fires or is cancelled, so handing it back to the pool — directly
// or through a link's drop — must fail loudly instead of zeroing a queued
// element.
func TestReleasingPendingPacketPanics(t *testing.T) {
	eng, pool := sim.New(), &PacketPool{}
	var log []modelRec
	l := pipe(eng, pool, &log)
	p := pool.Get()
	p.Payload = 1442
	l.Send(p, 0)
	if !p.ev.Pending() || p.link != l || l.wire != p {
		t.Fatal("an idle send did not schedule the packet's own node")
	}
	mustPanic(t, "arrival on pipe is pending", func() { pool.Put(p) })
	mustPanic(t, "arrival on pipe is pending", func() { l.drop(p, 0) })
	mustPanic(t, "arrival on pipe is pending", func() { (*PacketPool)(nil).Put(p) })
	mustPanic(t, "queueing a node pending", func() { l.Send(p, 0) })
	eng.Run(sim.MaxTime)
	if len(log) != 1 || log[0].at != 2200 {
		t.Fatalf("deliveries %+v, want one at 2200 ns", log)
	}
	pool.Put(p) // delivered: the node is idle again
	if pool.Get() != p {
		t.Fatal("delivered packet did not recycle")
	}
}

// releaseNode hands every packet it receives back to its pool.
type releaseNode struct{ pool *PacketPool }

func (r releaseNode) handle(p *Packet, _ *Link, _ sim.Time) { r.pool.Put(p) }

// TestLinkQueueAllocatesNothing: a queued packet costs no memory beside
// itself. With 1,000 packets already pooled, a burst of all of them into a
// fresh link — one starts, 999 queue behind its claim — drains and releases
// them without one allocation, the first burst included, where a queue
// holding a slot per packet would grow its array; repeated bursts allocate
// nothing either.
func TestLinkQueueAllocatesNothing(t *testing.T) {
	const burst = 1000
	eng, pool := sim.New(), &PacketPool{}
	held := make([]*Packet, burst)
	for i := range held {
		held[i] = pool.Get()
	}
	for _, p := range held {
		pool.Put(p)
	}
	l := NewLink(eng, LinkConfig{Name: "burst", RateBps: 10e9, PropDelay: sim.Microsecond,
		BufBytes: 4 << 20, Params: core.DefaultParams(), Pool: pool}, releaseNode{pool})
	peak := 0
	cycle := func() {
		now := eng.Now()
		for range burst {
			p := pool.Get()
			p.Payload = 1442
			l.Send(p, now)
		}
		peak = l.queued()
		eng.Run(sim.MaxTime)
	}

	// Mallocs counts the whole process. A collection running through the
	// burst, and the goroutines the runtime wakes after one (the unique
	// package's map cleanup allocates), add strays: about 3 in 100 runs of
	// this test read 1 to 3. So collect now, let those goroutines finish,
	// and hold off the next collection until the burst is counted.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	time.Sleep(time.Millisecond)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cycle()
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Errorf("the first burst of %d packets allocated %d objects, want 0", burst, n)
	}
	if peak != burst-1 || l.drained != burst-1 || l.Drops != 0 {
		t.Fatalf("burst queued %d, drained %d, dropped %d; want %d queued behind one claim and drained, none dropped",
			peak, l.drained, l.Drops, burst-1)
	}
	if a := testing.AllocsPerRun(20, cycle); a != 0 {
		t.Errorf("a repeated burst allocates %v objects, want 0", a)
	}
	if pool.Allocs != burst || pool.freeCount() != burst {
		t.Errorf("pool allocated %d and holds %d free, want %d and %d", pool.Allocs, pool.freeCount(), burst, burst)
	}
}

// TestKilledPacketResentOnSameLink pulls the cable mid-serialization, then
// restores the link and, in the same instant, sends the very packet object
// the kill released. The link still remembers that object as the last one
// it put on the wire; a second failure before the claim expires must flush
// it from the queue without touching any arrival, and after a restore it
// must cross the link exactly once. The killed arrival is cancelled, not
// fired as a no-op: the run executes one event fewer than it did through
// PR 13, which is the only event-count difference the caller-owned nodes
// make anywhere.
func TestKilledPacketResentOnSameLink(t *testing.T) {
	eng, pool := sim.New(), &PacketPool{}
	var log []modelRec
	l := pipe(eng, pool, &log)
	send := func(seq int64, now sim.Time) *Packet {
		p := pool.Get()
		p.Seq, p.Payload = seq, 1442
		l.Send(p, now)
		return p
	}
	first := send(1, 0) // serializing until 1500, arrival at 2200
	eng.At(500, func(now sim.Time) {
		l.SetUp(false)
		if first.ev.Pending() || l.Drops != 1 || eng.Pending() != 3 { // the three scripted events below
			t.Fatalf("kill left pending=%v drops=%d engine pending=%d", first.ev.Pending(), l.Drops, eng.Pending())
		}
		l.SetUp(true)
		if again := send(2, now); again != first {
			t.Fatal("the pool did not hand back the killed packet")
		}
		if first.ev.Pending() || !l.drainEv.Pending() {
			t.Fatal("the claim stands until 1500: the re-sent packet must queue behind it")
		}
	})
	eng.At(900, func(now sim.Time) {
		l.SetUp(false) // serSize is 0: flushes the queue, consults no stale pointer
		if l.Drops != 2 || l.QueuedBytes() != 0 {
			t.Fatalf("second failure: drops %d queued %d", l.Drops, l.QueuedBytes())
		}
		l.SetUp(true)
		send(3, now) // the same object a third time; starts at 1500
	})
	eng.At(1600, func(sim.Time) {
		if l.wire != first || !first.ev.Pending() {
			t.Fatal("drain did not start the queued packet on its own node")
		}
		l.SetUp(false) // mid-serialization again: must kill exactly this arrival
		l.SetUp(true)
	})
	eng.At(4000, func(now sim.Time) { send(4, now) }) // idle start, arrival at 6200
	eng.Run(sim.MaxTime)

	if len(log) != 1 || log[0].a != 4 || log[0].at != 6200 {
		t.Fatalf("deliveries %+v, want only packet 4 at 6200 ns", log)
	}
	if l.Drops != 3 || l.TxPackets() != 3 {
		t.Fatalf("drops %d tx %d, want 3 and 3 (two killed on the wire, one delivered)", l.Drops, l.TxPackets())
	}
	// Four scripted events, the drain at 1500 and packet 4's arrival. The
	// two killed arrivals do not execute.
	if got := eng.Executed(); got != 6 {
		t.Fatalf("executed %d events, want 6: the killed arrivals must not fire", got)
	}
	if eng.Pending() != 0 {
		t.Fatalf("%d events left pending", eng.Pending())
	}
}

func TestNewNetworkRejectsUnknownLeafScheme(t *testing.T) {
	cfg := smallTestConfig(SchemeCONGA)
	cfg.LeafSchemes = []Scheme{SchemeECMP, Scheme(99)}
	_, err := NewNetwork(sim.New(), cfg)
	if err == nil || !strings.Contains(err.Error(), "Scheme(99)") || !strings.Contains(err.Error(), "leaf 1") {
		t.Fatalf("bad per-leaf scheme: err = %v, want one naming leaf 1 and Scheme(99)", err)
	}
	cfg = smallTestConfig(Scheme(42))
	if _, err := NewNetwork(sim.New(), cfg); err == nil || !strings.Contains(err.Error(), "Scheme(42)") {
		t.Fatalf("bad fabric-wide scheme: err = %v, want one naming Scheme(42)", err)
	}
	// Partitioned construction validates the same way.
	if _, err := NewPartitionedNetwork([]*sim.Engine{sim.New(), sim.New()}, cfg); err == nil {
		t.Fatal("partitioned network accepted an unknown scheme")
	}
}
