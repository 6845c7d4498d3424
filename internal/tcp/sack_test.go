package tcp

import (
	"testing"

	"conga/internal/fabric"
	"conga/internal/sim"
)

func newBareSender(t *testing.T) (*Sender, *fabric.Network, *sim.Engine) {
	t.Helper()
	eng, n := testNet(t, fabric.SchemeECMP)
	s := NewSender(eng, n.Host(0), 1, 4, 7000, dcConfig())
	return s, n, eng
}

func TestAddSackMergesRanges(t *testing.T) {
	s, _, _ := newBareSender(t)
	s.avail = 100000
	s.sndNxt = 100000
	s.addSack(1000, 2000)
	s.addSack(3000, 4000)
	s.addSack(1500, 3500) // bridges both
	if len(s.sacked.spans) != 1 || s.sacked.spans[0] != (span{1000, 4000}) {
		t.Fatalf("scoreboard %v, want [{1000 4000}]", s.sacked.spans)
	}
}

func TestAddSackKeepsDisjointSorted(t *testing.T) {
	s, _, _ := newBareSender(t)
	s.addSack(5000, 6000)
	s.addSack(1000, 2000)
	s.addSack(3000, 4000)
	want := []span{{1000, 2000}, {3000, 4000}, {5000, 6000}}
	if len(s.sacked.spans) != 3 {
		t.Fatalf("scoreboard %v", s.sacked.spans)
	}
	for i, r := range want {
		if s.sacked.spans[i] != r {
			t.Fatalf("scoreboard %v, want %v", s.sacked.spans, want)
		}
	}
}

func TestAddSackIgnoresBelowUna(t *testing.T) {
	s, _, _ := newBareSender(t)
	s.sndUna = 5000
	s.addSack(1000, 3000) // entirely stale
	if len(s.sacked.spans) != 0 {
		t.Fatalf("stale SACK retained: %v", s.sacked.spans)
	}
	s.addSack(4000, 7000) // partially stale: clamp to una
	if len(s.sacked.spans) != 1 || s.sacked.spans[0].start != 5000 {
		t.Fatalf("clamping failed: %v", s.sacked.spans)
	}
}

func TestPruneSack(t *testing.T) {
	s, _, _ := newBareSender(t)
	s.addSack(1000, 2000)
	s.addSack(3000, 4000)
	s.sndUna = 3500
	s.pruneSack()
	if len(s.sacked.spans) != 1 || s.sacked.spans[0] != (span{3500, 4000}) {
		t.Fatalf("prune result %v", s.sacked.spans)
	}
}

// TestAddSackOverflowsInlineCapacity: more than four disjoint holes spill
// the scoreboard past the spanSet's inline array; ordering, merging, and
// the containing-index contract must survive the spill and the collapse
// back to a single range.
func TestAddSackOverflowsInlineCapacity(t *testing.T) {
	s, _, _ := newBareSender(t)
	// Six disjoint ranges, inserted out of order.
	for _, r := range []span{{9000, 9500}, {1000, 1500}, {5000, 5500}, {3000, 3500}, {11000, 11500}, {7000, 7500}} {
		s.addSack(r.start, r.end)
	}
	want := []span{{1000, 1500}, {3000, 3500}, {5000, 5500}, {7000, 7500}, {9000, 9500}, {11000, 11500}}
	if len(s.sacked.spans) != len(want) {
		t.Fatalf("scoreboard %v, want %v", s.sacked.spans, want)
	}
	for i, r := range want {
		if s.sacked.spans[i] != r {
			t.Fatalf("scoreboard %v, want %v", s.sacked.spans, want)
		}
	}
	// Inserting into the spilled set still reports the containing index.
	if got := s.sacked.insert(5600, 5700); got != 3 {
		t.Fatalf("containing index %d, want 3", got)
	}
	// One bridging range collapses everything back below inline capacity.
	s.addSack(1000, 12000)
	if len(s.sacked.spans) != 1 || s.sacked.spans[0] != (span{1000, 12000}) {
		t.Fatalf("collapse result %v", s.sacked.spans)
	}
	// And the set keeps working after the collapse.
	s.addSack(20000, 21000)
	if len(s.sacked.spans) != 2 || s.sacked.spans[1] != (span{20000, 21000}) {
		t.Fatalf("post-collapse insert %v", s.sacked.spans)
	}
}

func TestNextHoleWalksGaps(t *testing.T) {
	s, _, _ := newBareSender(t)
	mss := int64(s.cfg.MSS)
	s.avail = 100 * mss
	s.sndNxt = 20 * mss
	s.recover = 20 * mss
	s.retxMark = 0
	s.addSack(2*mss, 4*mss)
	s.addSack(6*mss, 8*mss)

	// First hole: [0, mss) bounded by MSS.
	seq, size, ok := s.nextHole()
	if !ok || seq != 0 || size != int(mss) {
		t.Fatalf("hole 1 = (%d,%d,%v)", seq, size, ok)
	}
	s.retxMark = seq + int64(size)
	// Second hole: [mss, 2mss).
	seq, size, ok = s.nextHole()
	if !ok || seq != mss || size != int(mss) {
		t.Fatalf("hole 2 = (%d,%d,%v)", seq, size, ok)
	}
	s.retxMark = 4 * mss // jump past the first sacked range
	seq, _, ok = s.nextHole()
	if !ok || seq != 4*mss {
		t.Fatalf("hole 3 = (%d,%v), want start 4·MSS", seq, ok)
	}
	s.retxMark = 20 * mss
	if _, _, ok := s.nextHole(); ok {
		t.Fatal("hole found beyond recovery point")
	}
}

func TestNextHoleBoundedBySackStart(t *testing.T) {
	s, _, _ := newBareSender(t)
	mss := int64(s.cfg.MSS)
	s.avail = 100 * mss
	s.sndNxt = 20 * mss
	s.recover = 20 * mss
	s.addSack(mss/2, 2*mss) // hole is only half an MSS
	seq, size, ok := s.nextHole()
	if !ok || seq != 0 || int64(size) != mss/2 {
		t.Fatalf("short hole = (%d,%d,%v), want (0,%d,true)", seq, size, ok, mss/2)
	}
}

func TestLostBytesRFC6675Heuristic(t *testing.T) {
	s, _, _ := newBareSender(t)
	mss := int64(s.cfg.MSS)
	s.sndNxt = 20 * mss
	// SACKed [10mss, 20mss): everything below 20mss−3mss = 17mss that is
	// unsacked counts as lost → [0, 10mss).
	s.addSack(10*mss, 20*mss)
	if got := s.lostBytes(); got != 10*mss {
		t.Fatalf("lostBytes = %d, want %d", got, 10*mss)
	}
	// Nothing sacked → nothing provably lost.
	s.sacked = spanSet{}
	if got := s.lostBytes(); got != 0 {
		t.Fatalf("lostBytes = %d with empty scoreboard", got)
	}
}

func TestSkipSackedAdvancesSndNxt(t *testing.T) {
	s, _, _ := newBareSender(t)
	s.addSack(1000, 5000)
	s.sndNxt = 2000 // as after an RTO rewind
	if !s.skipSacked() {
		t.Fatal("skipSacked did not move")
	}
	if s.sndNxt != 5000 {
		t.Fatalf("sndNxt = %d, want 5000", s.sndNxt)
	}
	if s.skipSacked() {
		t.Fatal("skipSacked moved outside a sacked range")
	}
}

// TestSingleLossRecoversWithoutSpuriousRetx: with exactly one lost segment
// and SACK, recovery must retransmit (almost) only that segment.
func TestSingleLossRecoversWithoutSpuriousRetx(t *testing.T) {
	eng, n := testNet(t, fabric.SchemeECMP)
	cfg := dcConfig()
	// Interpose on the path: drop exactly one data packet mid-flow by
	// briefly failing the host access link at a precise moment... too
	// blunt; instead use a tiny edge buffer so a short overshoot drops a
	// couple of segments, and bound the retransmission overhead.
	var st Stats
	var delivered int64
	startFlow(eng, n.Host(0), n.Host(4), 5, 2<<20, cfg, func(f *Flow, _ sim.Time) {
		st, delivered = f.Sender.Stats(), f.Receiver.Delivered()
	})
	eng.At(1200*sim.Microsecond, func(sim.Time) {
		// Flap: drops whatever is queued right now (a handful of
		// segments), leaving later segments to generate SACKs.
		n.Host(0).AccessLink().SetUp(false)
		n.Host(0).AccessLink().SetUp(true)
	})
	eng.Run(sim.MaxTime)
	if delivered != 2<<20 {
		t.Fatal("flow incomplete")
	}
	if st.RetxSegments == 0 {
		t.Skip("flap dropped nothing in flight; nothing to verify")
	}
	// SACK recovery should not retransmit more than ~3× the actual loss
	// (NewReno without SACK would resend the entire window).
	drops := n.Host(0).AccessLink().Drops
	if st.RetxSegments > 3*drops+10 {
		t.Fatalf("%d retransmissions for %d drops; SACK not limiting recovery", st.RetxSegments, drops)
	}
}

// TestReorderingTriggersDupAcksNotCollapse: mild reordering (as caused by
// a flowlet path move) produces dup ACKs; SACK keeps goodput healthy.
func TestReorderingUnderSprayStillCompletes(t *testing.T) {
	eng, n := testNet(t, fabric.SchemeSpray) // per-packet spraying reorders across 2 paths
	var fct sim.Time
	var delivered int64
	startFlow(eng, n.Host(0), n.Host(4), 6, 4<<20, dcConfig(), func(fl *Flow, now sim.Time) {
		fct, delivered = fl.FCT(now), fl.Receiver.Delivered()
	})
	eng.Run(sim.MaxTime)
	if fct == 0 {
		t.Fatal("sprayed flow never completed")
	}
	if delivered != 4<<20 {
		t.Fatal("bytes missing")
	}
	// Equal-length paths at equal rates: spraying costs little here; the
	// flow should still finish near line rate despite any reordering.
	goodput := float64(4<<20*8) / fct.Seconds()
	if goodput < 0.5e9 {
		t.Fatalf("goodput %.0f Mbps under spraying; reordering handling broken", goodput/1e6)
	}
}

func TestSackCarriedOnWire(t *testing.T) {
	eng, n := testNet(t, fabric.SchemeECMP)
	r := NewReceiver(eng, n.Host(0), 7100)
	var lastSack [][2]int64 // offsets above lastAck, as carried
	var lastAck int64
	// Interpose: watch ACKs arriving back at a fake sender port. The packet
	// is recycled after delivery, so copy the blocks out.
	n.Host(4).Bind(7101, recvProbe(func(p *fabric.Packet) {
		lastSack = lastSack[:0]
		for i := range p.SackN {
			lastSack = append(lastSack, [2]int64{int64(p.Sack[i][0]), int64(p.Sack[i][1])})
		}
		lastAck = p.AckNo
	}))
	seg := func(seq int64, size int) *fabric.Packet {
		return &fabric.Packet{FlowID: 2, SrcHost: 4, DstHost: 0, SrcPort: 7101, DstPort: 7100,
			Seq: seq, Payload: int32(size)}
	}
	r.Receive(seg(1460, 1460), 0) // out of order → SACK block
	eng.Run(sim.MaxTime)
	if lastAck != 0 || len(lastSack) != 1 || lastSack[0] != [2]int64{1460, 2920} {
		t.Fatalf("ACK %d SACK on wire = %v, want ACK 0 [[1460 2920]]", lastAck, lastSack)
	}
	// Once the ACK moves, the block is carried relative to it.
	r.Receive(seg(0, 1460), eng.Now())
	r.Receive(seg(4380, 1460), eng.Now())
	eng.Run(sim.MaxTime)
	if lastAck != 2920 || len(lastSack) != 1 || lastSack[0] != [2]int64{1460, 2920} {
		t.Fatalf("ACK %d SACK on wire = %v, want ACK 2920 [[1460 2920]] (absolute [4380, 5840))", lastAck, lastSack)
	}
}

// TestSackBeyond32BitsPanics: a block must fit its 32-bit offset above the
// ACK, or the receiver refuses to send it rather than wrap it.
func TestSackBeyond32BitsPanics(t *testing.T) {
	eng, n := testNet(t, fabric.SchemeECMP)
	seg := func(seq int64) *fabric.Packet {
		return &fabric.Packet{FlowID: 3, SrcHost: 4, DstHost: 0, SrcPort: 7201, DstPort: 7200, Seq: seq, Payload: 100}
	}
	NewReceiver(eng, n.Host(0), 7200).Receive(seg(1<<32-101), 0) // ends at offset 2³² − 1: fits
	defer func() {
		if recover() == nil {
			t.Fatal("a SACK block ending 2³² above the ACK was sent")
		}
	}()
	NewReceiver(eng, n.Host(0), 7202).Receive(seg(1<<32-100), 0)
}

type recvProbe func(p *fabric.Packet)

func (f recvProbe) Receive(p *fabric.Packet, _ sim.Time) { f(p) }

// TestReorderWindowSuppressesSpuriousRecovery: under per-packet spraying
// (pure reordering, no loss), classic TCP fires spurious fast retransmits;
// a reordering window suppresses them.
func TestReorderWindowSuppressesSpuriousRecovery(t *testing.T) {
	run := func(window sim.Time) (fastRetx uint64, fct sim.Time) {
		eng, n := testNet(t, fabric.SchemeSpray)
		cfg := dcConfig()
		cfg.ReorderWindow = window
		startFlow(eng, n.Host(0), n.Host(4), 11, 4<<20, cfg, func(fl *Flow, now sim.Time) {
			fastRetx, fct = fl.Sender.Stats().FastRetx, fl.FCT(now)
		})
		eng.Run(sim.MaxTime)
		return fastRetx, fct
	}
	classicRetx, classicFCT := run(0)
	resilientRetx, resilientFCT := run(500 * sim.Microsecond)
	if classicFCT == 0 || resilientFCT == 0 {
		t.Fatal("flows did not finish")
	}
	if resilientRetx > classicRetx {
		t.Fatalf("reorder window increased spurious recoveries: %d vs %d", resilientRetx, classicRetx)
	}
	// Equal-cost equal-length paths: there is no real loss, so resilient
	// TCP should see (almost) no recovery episodes at all.
	if resilientRetx > 2 && classicRetx > 0 && resilientRetx >= classicRetx {
		t.Fatalf("reordering still misread as loss: %d episodes", resilientRetx)
	}
}

// TestReorderWindowStillRecoversRealLoss: deferral must not break actual
// loss recovery.
func TestReorderWindowStillRecoversRealLoss(t *testing.T) {
	eng, n := testNet(t, fabric.SchemeECMP)
	cfg := dcConfig()
	cfg.ReorderWindow = 200 * sim.Microsecond
	var done sim.Time
	startFlow(eng, n.Host(0), n.Host(4), 12, 1<<20, cfg, func(fl *Flow, now sim.Time) {
		done = fl.FCT(now)
	})
	eng.At(sim.Millisecond, func(sim.Time) {
		n.Host(0).AccessLink().SetUp(false)
		n.Host(0).AccessLink().SetUp(true)
	})
	eng.Run(sim.MaxTime)
	if done == 0 {
		t.Fatal("flow with reorder window never recovered from real loss")
	}
}
