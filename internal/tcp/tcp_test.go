package tcp

import (
	"strings"
	"testing"

	"conga/internal/core"
	"conga/internal/fabric"
	"conga/internal/sim"
)

// testNet builds a small 2-leaf fabric with 1 Gbps links for fast tests.
func testNet(t testing.TB, scheme fabric.Scheme) (*sim.Engine, *fabric.Network) {
	t.Helper()
	eng := sim.New()
	p := core.DefaultParams()
	p.FlowletTableSize = 4096
	n := fabric.MustNetwork(eng, fabric.Config{
		NumLeaves:     2,
		NumSpines:     2,
		HostsPerLeaf:  4,
		LinksPerSpine: 1,
		AccessRateBps: 1e9,
		FabricRateBps: 1e9,
		Scheme:        scheme,
		Params:        p,
		Seed:          11,
	})
	return eng, n
}

// startFlow starts a flow the way the harness does, from a FlowPool. The
// flow goes back to the pool after onDone, so a test reads the endpoints of
// a finished flow inside onDone.
func startFlow(eng *sim.Engine, src, dst *fabric.Host, flowID uint64, size int64,
	cfg Config, onDone func(f *Flow, now sim.Time)) *Flow {
	return NewFlowPool().StartFlow(eng, src, dst, flowID, size, cfg, onDone)
}

func dcConfig() Config {
	c := DefaultConfig()
	c.MinRTO = 10 * sim.Millisecond
	c.InitRTO = 50 * sim.Millisecond
	return c
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []struct {
		field  string
		mutate func(*Config)
	}{
		{"MSS", func(c *Config) { c.MSS = 0 }},
		{"MSS", func(c *Config) { c.MSS, c.MaxCwnd = 65496, 1<<20 }},
		{"InitCwnd", func(c *Config) { c.InitCwnd = 0 }},
		{"MinRTO", func(c *Config) { c.MinRTO = 0 }},
		{"MaxRTO", func(c *Config) { c.MaxRTO = c.MinRTO - 1 }},
		{"InitRTO", func(c *Config) { c.InitRTO = 0 }},
		{"DupThresh", func(c *Config) { c.DupThresh = 0 }},
		{"MaxCwnd", func(c *Config) { c.MaxCwnd = 10 }},
		{"MaxCwnd", func(c *Config) { c.MaxCwnd = 1 << 31 }},
	}
	for i, b := range bad {
		c := DefaultConfig()
		b.mutate(&c)
		if err := c.Validate(); err == nil || !strings.Contains(err.Error(), b.field) {
			t.Errorf("bad config %d (%s): got %v, want an error naming %s", i, b.field, err, b.field)
		}
	}
	edge := DefaultConfig()
	edge.MSS, edge.MaxCwnd = 65495, 1<<31-1
	if err := edge.Validate(); err != nil {
		t.Errorf("largest valid MSS and MaxCwnd refused: %v", err)
	}
}

func TestMTUToMSS(t *testing.T) {
	if MTUToMSS(1500) != 1460 || MTUToMSS(9000) != 8960 {
		t.Fatal("MSS derivation wrong")
	}
}

func TestSingleFlowCompletes(t *testing.T) {
	eng, n := testNet(t, fabric.SchemeECMP)
	var fct sim.Time
	done := false
	startFlow(eng, n.Host(0), n.Host(4), 1, 1<<20, dcConfig(), func(f *Flow, now sim.Time) {
		fct = f.FCT(now)
		done = true
	})
	eng.Run(sim.MaxTime)
	if !done {
		t.Fatal("1 MB flow never completed")
	}
	// 1 MB at 1 Gbps ≈ 8.4 ms ideal + headers/slow-start; allow 8–40 ms.
	if fct < 8*sim.Millisecond || fct > 40*sim.Millisecond {
		t.Fatalf("FCT = %v, want ≈ 10 ms", fct)
	}
	if n.TotalDrops() != 0 {
		t.Fatalf("%d drops for a single flow on an idle fabric", n.TotalDrops())
	}
}

func TestFlowDeliversExactByteCount(t *testing.T) {
	eng, n := testNet(t, fabric.SchemeECMP)
	const size = 777777 // deliberately not a multiple of MSS
	var delivered, acked int64
	startFlow(eng, n.Host(0), n.Host(4), 2, size, dcConfig(), func(f *Flow, _ sim.Time) {
		delivered, acked = f.Receiver.Delivered(), f.Sender.Stats().BytesAcked
	})
	eng.Run(sim.MaxTime)
	if delivered != size {
		t.Fatalf("delivered %d bytes, want %d", delivered, size)
	}
	if acked != size {
		t.Fatalf("acked %d bytes, want %d", acked, size)
	}
}

func TestSlowStartDoublesWindow(t *testing.T) {
	eng, n := testNet(t, fabric.SchemeECMP)
	cfg := dcConfig()
	f := startFlow(eng, n.Host(0), n.Host(4), 3, 10<<20, cfg, nil)
	// After a couple of RTTs of an unconstrained 10 MB transfer the
	// window must have grown well past the initial 10 segments.
	eng.Run(2 * sim.Millisecond)
	if f.Sender.Cwnd() <= float64(2*cfg.InitCwnd*cfg.MSS) {
		t.Fatalf("cwnd = %.0f after 2 ms, expected exponential growth", f.Sender.Cwnd())
	}
}

func TestThroughputApproachesLineRate(t *testing.T) {
	eng, n := testNet(t, fabric.SchemeECMP)
	const size = 8 << 20
	var fct sim.Time
	startFlow(eng, n.Host(0), n.Host(4), 4, size, dcConfig(), func(f *Flow, now sim.Time) {
		fct = f.FCT(now)
	})
	eng.Run(sim.MaxTime)
	if fct == 0 {
		t.Fatal("flow did not complete")
	}
	goodput := float64(size*8) / fct.Seconds()
	// ≥80% of the 1 Gbps access rate (headers + slow start overheads).
	if goodput < 0.80e9 {
		t.Fatalf("goodput %.2f Mbps, want ≥800", goodput/1e6)
	}
}

func TestTwoFlowsShareBottleneckFairly(t *testing.T) {
	eng, n := testNet(t, fabric.SchemeECMP)
	// Both flows target host 4: its access downlink is the bottleneck.
	var bytes [2]int64
	mk := func(i int, src *fabric.Host) *Flow {
		return startFlow(eng, src, n.Host(4), uint64(10+i), 64<<20, dcConfig(), nil)
	}
	f0, f1 := mk(0, n.Host(0)), mk(1, n.Host(1))
	eng.Run(100 * sim.Millisecond)
	bytes[0] = f0.Sender.Stats().BytesAcked
	bytes[1] = f1.Sender.Stats().BytesAcked
	total := bytes[0] + bytes[1]
	// Combined goodput near line rate.
	if total < 9e6 {
		t.Fatalf("combined transfer %d bytes in 100 ms, want ≥9 MB", total)
	}
	// Rough fairness: neither flow below 25% of the total.
	for i, b := range bytes {
		if float64(b) < 0.25*float64(total) {
			t.Fatalf("flow %d starved: %v of %v bytes", i, b, total)
		}
	}
}

func TestFastRetransmitRecoversFromSingleLoss(t *testing.T) {
	eng, n := testNet(t, fabric.SchemeECMP)
	// Force a loss by briefly failing the path after ~50 packets.
	var fct sim.Time
	var st Stats
	startFlow(eng, n.Host(0), n.Host(4), 5, 4<<20, dcConfig(), func(fl *Flow, now sim.Time) {
		fct, st = fl.FCT(now), fl.Sender.Stats()
	})
	// Drop everything in the host uplink queue once, mid-transfer, by
	// flapping it down/up instantly.
	eng.At(2*sim.Millisecond, func(now sim.Time) {
		n.Host(0).AccessLink().SetUp(false)
		n.Host(0).AccessLink().SetUp(true)
	})
	eng.Run(sim.MaxTime)
	if fct == 0 {
		t.Fatal("flow did not complete after loss")
	}
	if st.FastRetx == 0 && st.Timeouts == 0 {
		t.Fatal("loss recovered without any retransmission event recorded")
	}
	// With a healthy dup-ACK stream, fast retransmit should beat the
	// 10 ms minRTO: total time well under a timeout-dominated run.
	if st.FastRetx == 0 {
		t.Fatalf("recovery used timeouts only: %+v", st)
	}
}

func TestRTOFiresWhenAllAcksLost(t *testing.T) {
	eng, n := testNet(t, fabric.SchemeECMP)
	cfg := dcConfig()
	var st Stats
	var delivered int64
	startFlow(eng, n.Host(0), n.Host(4), 6, 200<<10, cfg, func(f *Flow, _ sim.Time) {
		st, delivered = f.Sender.Stats(), f.Receiver.Delivered()
	})
	// Kill the whole fabric briefly: everything in flight dies, no dup
	// ACKs are possible, so only the RTO can recover.
	eng.At(500*sim.Microsecond, func(sim.Time) {
		n.FailLink(0, 0, 0)
		n.FailLink(0, 1, 0)
	})
	eng.At(30*sim.Millisecond, func(sim.Time) {
		n.RestoreLink(0, 0, 0)
		n.RestoreLink(0, 1, 0)
	})
	eng.Run(sim.MaxTime)
	if st.Timeouts == 0 {
		t.Fatalf("no RTO despite a black-holed path: %+v", st)
	}
	if delivered != 200<<10 {
		t.Fatalf("delivered %d bytes, want all after recovery", delivered)
	}
}

func TestRTORespectsMinRTO(t *testing.T) {
	for _, minRTO := range []sim.Time{sim.Millisecond, 200 * sim.Millisecond} {
		eng, n := testNet(t, fabric.SchemeECMP)
		cfg := DefaultConfig()
		cfg.MinRTO = minRTO
		cfg.InitRTO = 500 * sim.Millisecond
		var doneAt sim.Time
		startFlow(eng, n.Host(0), n.Host(4), 7, 50<<10, cfg, func(f *Flow, now sim.Time) {
			doneAt = now
		})
		// Let slow start gather RTT samples first, then black-hole both
		// directions for 30 ms: all in-flight traffic (including ACKs)
		// dies, no dup-ACKs are possible, so only the RTO can recover.
		eng.At(300*sim.Microsecond, func(sim.Time) {
			n.FailLink(0, 0, 0)
			n.FailLink(0, 1, 0)
		})
		eng.At(30*sim.Millisecond, func(sim.Time) {
			n.RestoreLink(0, 0, 0)
			n.RestoreLink(0, 1, 0)
		})
		eng.Run(sim.MaxTime)
		if doneAt == 0 {
			t.Fatalf("minRTO %v: flow stuck", minRTO)
		}
		if doneAt < minRTO {
			t.Fatalf("minRTO %v: recovered at %v, before the timer could legally fire", minRTO, doneAt)
		}
		// With the 1 ms clamp, backed-off retries probe through the
		// outage and finish shortly after the 30 ms restore; with the
		// 200 ms clamp nothing can happen before 200 ms.
		if minRTO == sim.Millisecond && doneAt > 80*sim.Millisecond {
			t.Fatalf("minRTO 1ms: took %v, timer not respecting the lower clamp", doneAt)
		}
		if minRTO == 200*sim.Millisecond && (doneAt < 200*sim.Millisecond || doneAt > 600*sim.Millisecond) {
			t.Fatalf("minRTO 200ms: finished at %v, want shortly after the first 200 ms timeout", doneAt)
		}
	}
}

func TestKarnNoRTTFromRetransmits(t *testing.T) {
	eng, n := testNet(t, fabric.SchemeECMP)
	var st Stats
	startFlow(eng, n.Host(0), n.Host(4), 8, 1<<20, dcConfig(), func(f *Flow, _ sim.Time) { st = f.Sender.Stats() })
	eng.At(sim.Millisecond, func(sim.Time) {
		n.Host(0).AccessLink().SetUp(false)
		n.Host(0).AccessLink().SetUp(true)
	})
	eng.Run(sim.MaxTime)
	if st.BytesAcked != 1<<20 {
		t.Fatalf("flow incomplete: %d bytes acked", st.BytesAcked)
	}
	// SRTT must stay in the microsecond range of the physical path; a
	// retransmission-tainted sample would jump it by milliseconds.
	if st.LastSRTT > 5*sim.Millisecond {
		t.Fatalf("SRTT %v polluted by retransmission ambiguity", st.LastSRTT)
	}
}

func TestReceiverReassemblesOutOfOrder(t *testing.T) {
	eng, n := testNet(t, fabric.SchemeECMP)
	h := n.Host(0)
	r := NewReceiver(h, 4000)
	var delivered int64
	r.OnDelivered = func(total int64, _ sim.Time) { delivered = total }

	seg := func(seq int64, size int) *fabric.Packet {
		return &fabric.Packet{FlowID: 1, SrcHost: 4, DstHost: 0, SrcPort: 9, DstPort: 4000,
			Seq: seq, Payload: int32(size)}
	}
	// Deliver 2,3,1 of three 100-byte segments.
	r.Receive(seg(100, 100), 0)
	r.Receive(seg(200, 100), 0)
	if delivered != 0 {
		t.Fatalf("delivered %d before the hole filled", delivered)
	}
	if r.OutOfOrder != 2 {
		t.Fatalf("OutOfOrder = %d, want 2", r.OutOfOrder)
	}
	r.Receive(seg(0, 100), 0)
	if delivered != 300 {
		t.Fatalf("delivered %d after hole filled, want 300", delivered)
	}
	_ = eng
}

func TestReceiverMergesOverlappingIntervals(t *testing.T) {
	_, n := testNet(t, fabric.SchemeECMP)
	r := NewReceiver(n.Host(0), 4001)
	seg := func(seq int64, size int) *fabric.Packet {
		return &fabric.Packet{SrcHost: 4, DstHost: 0, SrcPort: 9, DstPort: 4001, Seq: seq, Payload: int32(size)}
	}
	r.Receive(seg(300, 100), 0)
	r.Receive(seg(100, 100), 0)
	r.Receive(seg(150, 200), 0) // bridges both
	r.Receive(seg(0, 100), 0)
	if got := r.Delivered(); got != 400 {
		t.Fatalf("delivered %d, want 400", got)
	}
}

func TestReceiverCountsDuplicates(t *testing.T) {
	_, n := testNet(t, fabric.SchemeECMP)
	r := NewReceiver(n.Host(0), 4002)
	seg := &fabric.Packet{SrcHost: 4, DstHost: 0, SrcPort: 9, DstPort: 4002, Seq: 0, Payload: 100}
	r.Receive(seg, 0)
	r.Receive(seg, 0)
	if r.DupSegments != 1 {
		t.Fatalf("DupSegments = %d, want 1", r.DupSegments)
	}
}

func TestSenderPortsRecycleAfterClose(t *testing.T) {
	eng, n := testNet(t, fabric.SchemeECMP)
	for i := 0; i < 100; i++ {
		var delivered int64
		startFlow(eng, n.Host(0), n.Host(4), uint64(100+i), 10<<10, dcConfig(), func(f *Flow, _ sim.Time) {
			delivered = f.Receiver.Delivered()
		})
		eng.Run(sim.MaxTime)
		if delivered != 10<<10 {
			t.Fatalf("flow %d incomplete", i)
		}
	}
}

func TestQueuePanicsOnNonPositive(t *testing.T) {
	eng, n := testNet(t, fabric.SchemeECMP)
	s := NewSender(eng, n.Host(0), 1, 4, 5000, dcConfig())
	defer func() {
		if recover() == nil {
			t.Error("Queue(0) did not panic")
		}
	}()
	s.Queue(0, 0)
}

func TestMultipleQueuedTransfersOnOneConnection(t *testing.T) {
	eng, n := testNet(t, fabric.SchemeECMP)
	dst := n.Host(4)
	r := NewReceiver(dst, 5001)
	s := NewSender(eng, n.Host(0), 42, dst.ID, 5001, dcConfig())
	completions := 0
	s.OnAllAcked = func(now sim.Time) {
		completions++
		if completions < 3 {
			s.Queue(100<<10, now)
		}
	}
	s.Queue(100<<10, 0)
	eng.Run(sim.MaxTime)
	if completions != 3 {
		t.Fatalf("%d completions, want 3", completions)
	}
	if r.Delivered() != 300<<10 {
		t.Fatalf("delivered %d, want %d", r.Delivered(), 300<<10)
	}
}

func BenchmarkFlow1MB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng, n := testNet(b, fabric.SchemeCONGA)
		startFlow(eng, n.Host(0), n.Host(4), uint64(i), 1<<20, dcConfig(), nil)
		eng.Run(sim.MaxTime)
	}
}
