package fabric

import (
	"fmt"
	"strings"
	"testing"

	"conga/internal/sim"
)

// TestCheckDrainedNamesEachFault runs CONGA traffic to drain under the
// sweep audit, which must pass, then plants one fault per drain invariant
// and requires the error that names it and its link: a packet held past
// drain, a frame group leaked, a packet lost without a drop counted, and
// the link faults. Those use packets built outside the pool, so the pool
// invariant still holds; they come last, as they bypass the hosts' send
// counters the conservation balance reads.
func TestCheckDrainedNamesEachFault(t *testing.T) {
	eng := sim.New()
	n := MustNetwork(eng, smallTestConfig(SchemeCONGA))
	n.EnableCheck()
	src, dst := n.Host(0), n.Host(4)
	dst.Bind(9000, &testSink{})
	for i := 0; i < 200; i++ {
		eng.At(sim.Time(i)*3*sim.Microsecond, func(now sim.Time) {
			p := src.NewPacket()
			p.FlowID, p.DstHost, p.DstPort, p.Payload = uint64(1+i%5), dst.ID, 9000, 1460
			src.Send(p, now)
		})
	}
	eng.Run(10 * sim.Millisecond) // ≥ 20 sweeps, most of them after the traffic
	if err := n.CheckErr(); err != nil {
		t.Fatalf("sweep audit: %v", err)
	}
	if err := n.CheckDrained(); err != nil {
		t.Fatalf("drained network: %v", err)
	}

	held := src.NewPacket()
	want := fmt.Sprintf("1 of %d pooled packets are not back on a pool at drain", n.Pool().Allocs)
	if err := n.CheckDrained(); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("packet held past drain: CheckDrained() = %v", err)
	}
	n.Pool().Put(held)

	leaked := n.Pool().newGroup(0)
	want = fmt.Sprintf("1 of %d frame groups are not back on a pool at drain", len(n.Pool().groups))
	if err := n.CheckDrained(); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("frame group leaked: CheckDrained() = %v", err)
	}
	n.Pool().freeGroup(leaked)

	lost := src.NewPacket() // sent, then gone with no drop counted
	src.TxPackets++
	n.Pool().Put(lost)
	if err := n.CheckDrained(); err == nil || !strings.Contains(err.Error(), "packet conservation: 201 packets entered the fabric") {
		t.Errorf("uncounted drop: CheckDrained() = %v", err)
	}
	src.TxPackets--
	if err := n.CheckDrained(); err != nil {
		t.Fatalf("faults undone: %v", err)
	}

	l := src.out
	for _, tc := range []struct {
		fault string
		plant func()
		want  string
	}{
		{"arrival pending", func() { l.Send(&Packet{DstHost: 4, Payload: 100}, eng.Now()) }, "link " + l.Name + " still has an arrival pending"},
		{"packet queued", func() {
			l.Send(&Packet{DstHost: 4, Payload: 100}, eng.Now())
			l.Send(&Packet{DstHost: 4, Payload: 100}, eng.Now())
		}, "link " + l.Name + " still queues 1 frames"},
		{"drain pending", func() {
			l.Send(&Packet{DstHost: 4, Payload: 100}, eng.Now())
			l.Send(&Packet{DstHost: 4, Payload: 100}, eng.Now())
			l.queue, l.qlen = sim.Queue{}, 0
		}, "link " + l.Name + " still has its drain pending"},
	} {
		tc.plant()
		if err := n.CheckDrained(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: CheckDrained() = %v, want an error naming %q", tc.fault, err, tc.want)
		}
		eng.Run(eng.Now() + sim.Millisecond) // deliver what the fault left in flight
	}
}

// TestCheckSweepNamesEachQueueFault: the sweep audit of the link queues and
// of the hosts' packet conservation. A burst of one flow keeps host 0's
// uplink queued, folded into one super-packet, across a sweep, which must
// pass; then one fault per invariant is planted between two events and the
// audit must name it and the link or host. The last fault is planted just
// before a sweep, so it is the ticker's own audit that reports it.
func TestCheckSweepNamesEachQueueFault(t *testing.T) {
	eng := sim.New()
	cfg := smallTestConfig(SchemeCONGA)
	n := MustNetwork(eng, cfg)
	n.EnableCheck()
	src, dst := n.Host(0), n.Host(4)
	dst.Bind(9000, &testSink{})
	l := src.out
	tfl := cfg.Params.Tfl
	// 60 segments of ~1 KB at 1 Gb/s keep the link busy for ~500 µs from
	// 0.75·Tfl, well past the first sweep.
	eng.At(tfl*3/4, func(now sim.Time) {
		for i := 0; i < 60; i++ {
			p := src.NewPacket()
			p.FlowID, p.DstHost, p.DstPort, p.Payload, p.Seq = 1, dst.ID, 9000, 1000, int64(i)*1000
			src.Send(p, now)
		}
	})
	eng.Run(tfl + sim.Microsecond)
	if err := n.CheckErr(); err != nil {
		t.Fatalf("sweep audit of a queued link: %v", err)
	}
	if l.QueuedBytes() == 0 {
		t.Fatal("the burst drained before the sweep; the audit saw no queue")
	}

	audit := func() error {
		n.checkErrs[l.dom] = nil
		n.checkSweep(l.dom, eng.Now())
		err := n.CheckErr()
		n.checkErrs[l.dom] = nil
		return err
	}
	at := fmt.Sprintf("link %s at ", l.Name)
	host := fmt.Sprintf("host %d at ", src.ID)
	maxQ := l.maxQ
	head := nodePacket(l.queue.Head())
	if head.train == 0 || head.ev.Next() != nil {
		t.Fatal("the burst did not fold into one super-packet")
	}
	frames := &n.Pool().groups[head.train-1].n
	for _, tc := range []struct {
		fault       string
		plant, undo func()
		where, want string
	}{
		{"qlen off by one byte", func() { l.qlen++ }, func() { l.qlen-- }, at, "wire bytes, qlen says"},
		{"qlen above maxQ", func() { l.maxQ = l.qlen - 1 }, func() { l.maxQ = maxQ }, at, "-byte buffer"},
		{"drain disarmed", func() { eng.CancelNode(&l.drainEv) }, l.armDrain, at, "frames queued with no drain armed"},
		{"frame group miscounted", func() { *frames++ }, func() { *frames-- }, at, "its frame groups"},
		{"frame lost from the queue", func() {
			f := l.next()
			l.qlen -= l.wireSize(f)
			n.Pool().Put(f)
		}, func() { src.TxPackets-- }, host, "packet conservation: sent 60 packets, but NIC " + l.Name + " accounts for 59"},
	} {
		tc.plant()
		if err := audit(); err == nil || !strings.Contains(err.Error(), tc.where) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: audit = %v, want an error naming %q and %q", tc.fault, err, tc.where, tc.want)
		}
		tc.undo()
		if err := audit(); err != nil {
			t.Fatalf("%s undone: audit = %v", tc.fault, err)
		}
	}

	eng.At(2*tfl-1, func(sim.Time) { l.qlen++ })
	eng.Run(2 * tfl)
	if err := n.CheckErr(); err == nil || !strings.Contains(err.Error(), at) || !strings.Contains(err.Error(), "qlen says") {
		t.Errorf("fault planted before a sweep: CheckErr() = %v, want the sweep to name qlen on %s", err, l.Name)
	}
	l.qlen--
	n.checkErrs[l.dom] = nil
	eng.Run(eng.Now() + 5*sim.Millisecond)
	if err := n.CheckErr(); err != nil {
		t.Errorf("after the faults were undone: %v", err)
	}
	if err := n.CheckDrained(); err != nil {
		t.Errorf("drained network: %v", err)
	}
}
