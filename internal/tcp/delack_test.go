package tcp

import (
	"reflect"
	"testing"

	"conga/internal/fabric"
	"conga/internal/sim"
)

// wireAck is what a test sees of an ACK on the wire.
type wireAck struct {
	no    int64
	echo  sim.Time // the data SentAt it echoes
	sacks int
	sent  sim.Time // when the receiver sent it
}

// ackRig is a receiver on host 0 fed hand-made segments from host 4 port
// 9000, with a probe there recording the ACKs that come back.
type ackRig struct {
	eng  *sim.Engine
	pool *FlowPool
	r    *Receiver
	acks []wireAck
}

func newAckRig(t *testing.T) *ackRig {
	eng, n := testNet(t, fabric.SchemeECMP)
	g := &ackRig{eng: eng, pool: NewFlowPool()}
	g.r = g.pool.NewReceiver(eng, n.Host(0), 7000)
	n.Host(4).Bind(9000, recvProbe(func(p *fabric.Packet) {
		g.acks = append(g.acks, wireAck{no: p.AckNo, echo: p.EchoTS, sacks: int(p.SackN), sent: p.SentAt})
	}))
	return g
}

// feed delivers [seq, seq+size) at time at, stamped as sent at at−1 µs.
func (g *ackRig) feed(at sim.Time, seq int64, size int) {
	p := &fabric.Packet{FlowID: 5, SrcHost: 4, DstHost: 0, SrcPort: 9000, DstPort: 7000,
		Seq: seq, Payload: int32(size), SentAt: at - sim.Microsecond}
	g.eng.At(at, func(now sim.Time) { g.r.Receive(p, now) })
}

// TestReceiverAckRule pins each clause of the receiver's ACK rule. A warm
// case first spends the quick-ACK budget on quickAcks full in-order
// segments (one every µs from 1 µs), then feeds its segments one every µs
// from 100 µs, segment i sent at 99+i µs; want lists the ACKs after the
// warm-up's, with when each left the receiver.
func TestReceiverAckRule(t *testing.T) {
	const mss = 1460
	w := int64(quickAcks * mss) // the in-order prefix after the warm-up
	us := sim.Microsecond
	at := func(i int) sim.Time { return 100*us + sim.Time(i)*us } // segment i arrives
	ts := func(i int) sim.Time { return at(i) - us }              // and was sent
	for _, tc := range []struct {
		name    string
		warm    bool
		segs    [][2]int64 // seq, size
		want    []wireAck
		delayed uint64 // of want, those the timer sent
	}{
		{"quick-ACK at start", false,
			[][2]int64{{0, mss}, {mss, mss}, {2 * mss, mss}},
			[]wireAck{{mss, ts(0), 0, at(0)}, {2 * mss, ts(1), 0, at(1)}, {3 * mss, ts(2), 0, at(2)}}, 0},
		{"lone full segment waits for the timer", true,
			[][2]int64{{w, mss}},
			[]wireAck{{w + mss, ts(0), 0, at(0) + delAckDelay}}, 1},
		{"second full segment ACKs both, echoing the first", true,
			[][2]int64{{w, mss}, {w + mss, mss}, {w + 2*mss, mss}},
			[]wireAck{{w + 2*mss, ts(0), 0, at(1)}, {w + 3*mss, ts(2), 0, at(2) + delAckDelay}}, 1},
		{"short tail", true,
			[][2]int64{{w, 100}},
			[]wireAck{{w + 100, ts(0), 0, at(0)}}, 0},
		{"out of order", true,
			[][2]int64{{w + mss, mss}},
			[]wireAck{{w, ts(0), 1, at(0)}}, 0},
		{"out of order with an ACK held", true,
			[][2]int64{{w, mss}, {w + 2*mss, mss}},
			[]wireAck{{w + mss, ts(0), 1, at(1)}}, 0},
		{"hole fill", true,
			[][2]int64{{w + mss, mss}, {w, mss}},
			[]wireAck{{w, ts(0), 1, at(0)}, {w + 2*mss, ts(1), 0, at(1)}}, 0},
		{"duplicate re-enters quick-ACK mode", true,
			[][2]int64{{0, mss}, {w, mss}, {w + mss, mss}},
			[]wireAck{{w, ts(0), 0, at(0)}, {w + mss, ts(1), 0, at(1)}, {w + 2*mss, ts(2), 0, at(2)}}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := newAckRig(t)
			warmAcks := 0
			if tc.warm {
				for i := range quickAcks {
					g.feed(sim.Time(i+1)*us, int64(i)*mss, mss)
				}
				warmAcks = quickAcks
			}
			for i, s := range tc.segs {
				g.feed(at(i), s[0], int(s[1]))
			}
			g.eng.Run(sim.MaxTime)
			if len(g.acks) < warmAcks {
				t.Fatalf("%d ACKs for the %d warm-up segments", len(g.acks), warmAcks)
			}
			if got := g.acks[warmAcks:]; !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("ACKs\n got %+v\nwant %+v", got, tc.want)
			}
			if g.r.DelayedAcks != tc.delayed || g.r.AcksOut != uint64(len(g.acks)) {
				t.Fatalf("AcksOut %d, DelayedAcks %d; want %d and %d", g.r.AcksOut, g.r.DelayedAcks, len(g.acks), tc.delayed)
			}
		})
	}
}

// TestReceiverCloseCancelsHeldAck closes a receiver with an ACK held: the
// timer goes with it, so no ACK leaves and nothing stays live; the pool then
// takes the receiver back and hands it out reset, quick-ACK budget and all.
func TestReceiverCloseCancelsHeldAck(t *testing.T) {
	const mss = 1460
	g := newAckRig(t)
	for i := range quickAcks + 1 {
		g.feed(sim.Time(i+1)*sim.Microsecond, int64(i)*mss, mss)
	}
	g.eng.Run(50 * sim.Microsecond)
	if !g.r.delAck.Pending() || len(g.acks) != quickAcks {
		t.Fatalf("after %d segments: %d ACKs, timer pending %v; want %d and a held ACK", quickAcks+1, len(g.acks), g.r.delAck.Pending(), quickAcks)
	}
	g.r.Close()
	if g.r.delAck.Pending() || g.eng.Live() != 0 {
		t.Fatalf("Close left the delayed-ACK timer pending (%d live events)", g.eng.Live())
	}
	g.eng.Run(sim.MaxTime)
	if len(g.acks) != quickAcks {
		t.Fatalf("%d ACKs after Close; want %d", len(g.acks), quickAcks)
	}

	host := g.r.host
	g.pool.PutReceiver(g.r)
	r := g.pool.NewReceiver(g.eng, host, 7000)
	if r != g.r || g.pool.ReceiverRecycled != 1 {
		t.Fatal("the closed receiver was not recycled")
	}
	if r.quick != quickAcks || r.rcvMSS != 0 || r.held || r.heldTS != 0 || r.AcksOut != 0 || r.DelayedAcks != 0 || r.Delivered() != 0 {
		t.Fatalf("recycled receiver not reset: quick %d rcvMSS %d held %v heldTS %v AcksOut %d DelayedAcks %d delivered %d",
			r.quick, r.rcvMSS, r.held, r.heldTS, r.AcksOut, r.DelayedAcks, r.Delivered())
	}
	g.acks = nil
	g.r = r
	base := g.eng.Now() + sim.Microsecond
	for i := range 3 {
		g.feed(base+sim.Time(i)*sim.Microsecond, int64(i)*mss, mss)
	}
	g.eng.Run(sim.MaxTime)
	if len(g.acks) != 3 || r.DelayedAcks != 0 {
		t.Fatalf("recycled receiver sent %d ACKs (%d delayed) for 3 segments; want 3 at once", len(g.acks), r.DelayedAcks)
	}
}

// TestPutReceiverPanicsOnPendingTimer: a receiver whose delayed-ACK timer
// is still pending must not reach the free list, where its next owner
// would inherit the firing.
func TestPutReceiverPanicsOnPendingTimer(t *testing.T) {
	g := newAckRig(t)
	for i := range quickAcks + 1 {
		g.feed(sim.Time(i+1)*sim.Microsecond, int64(i)*1460, 1460)
	}
	g.eng.Run(50 * sim.Microsecond)
	g.r.freed = true // closed without Close's cancel
	defer func() {
		if recover() == nil {
			t.Fatal("PutReceiver took a receiver with its delayed-ACK timer pending")
		}
	}()
	g.pool.PutReceiver(g.r)
}

// TestLongFlowAcksEverySecondSegment: on a loss-free long flow the
// receiver ACKs its quick-ACK budget one by one and then every second full
// segment, so AcksOut ≈ quickAcks + (SegmentsIn − quickAcks)/2.
func TestLongFlowAcksEverySecondSegment(t *testing.T) {
	eng, n := testNet(t, fabric.SchemeECMP)
	cfg := dcConfig()
	cfg.MaxCwnd = 64 << 10 // below the fabric's buffers: no loss
	var segs, acks, delayed, retx uint64
	startFlow(eng, n.Host(0), n.Host(4), 1, 20<<20, cfg, func(f *Flow, _ sim.Time) {
		segs, acks, delayed = f.Receiver.SegmentsIn, f.Receiver.AcksOut, f.Receiver.DelayedAcks
		retx = f.Sender.Stats().RetxSegments
	})
	eng.Run(sim.MaxTime)
	if segs == 0 || retx != 0 {
		t.Fatalf("flow did not complete loss-free: %d segments in, %d retransmitted", segs, retx)
	}
	want := quickAcks + (segs-quickAcks)/2
	if acks < want-want/100 || acks > want+want/100 {
		t.Fatalf("%d ACKs for %d segments (%d by the timer); want %d ± 1%%", acks, segs, delayed, want)
	}
	t.Logf("%d segments, %d ACKs, %d of them delayed", segs, acks, delayed)
}
