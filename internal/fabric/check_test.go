package fabric

import (
	"fmt"
	"strings"
	"testing"

	"conga/internal/sim"
)

// TestCheckDrainedNamesEachFault runs CONGA traffic to drain under the
// sweep audit, which must pass, then plants one fault per drain invariant
// and requires the error that names it and its link. The link faults use
// packets built outside the pool, so the pool invariant still holds.
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
		}, "link " + l.Name + " still queues 1 packets"},
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

// TestCheckSweepNamesEachQueueFault: the sweep audit of the link queues. A
// burst keeps host 0's uplink queued across a sweep, which must pass; then
// one fault per queue invariant is planted between two events and the audit
// must name it and the link. The last fault is planted just before a sweep,
// so it is the ticker's own audit that reports it.
func TestCheckSweepNamesEachQueueFault(t *testing.T) {
	eng := sim.New()
	cfg := smallTestConfig(SchemeCONGA)
	n := MustNetwork(eng, cfg)
	n.EnableCheck()
	src, dst := n.Host(0), n.Host(4)
	dst.Bind(9000, &testSink{})
	l := src.out
	tfl := cfg.Params.Tfl
	// 60 packets of ~1 KB at 1 Gb/s keep the link busy for ~500 µs from
	// 0.75·Tfl, well past the first sweep.
	eng.At(tfl*3/4, func(now sim.Time) {
		for i := 0; i < 60; i++ {
			l.Send(&Packet{FlowID: 1, DstHost: dst.ID, DstPort: 9000, Payload: 1000}, now)
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
	maxQ := l.maxQ
	for _, tc := range []struct {
		fault       string
		plant, undo func()
		want        string
	}{
		{"qlen off by one byte", func() { l.qlen++ }, func() { l.qlen-- }, "wire bytes, qlen says"},
		{"qlen above maxQ", func() { l.maxQ = l.qlen - 1 }, func() { l.maxQ = maxQ }, "-byte buffer"},
		{"drain disarmed", func() { eng.CancelNode(&l.drainEv) }, l.armDrain, "packets queued with no drain armed"},
	} {
		tc.plant()
		if err := audit(); err == nil || !strings.Contains(err.Error(), at) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: audit = %v, want an error naming %q and %q", tc.fault, err, at, tc.want)
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
