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
			l.queue, l.qhead, l.qlen = l.queue[:0], 0, 0
		}, "link " + l.Name + " still has its drain pending"},
	} {
		tc.plant()
		if err := n.CheckDrained(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: CheckDrained() = %v, want an error naming %q", tc.fault, err, tc.want)
		}
		eng.Run(eng.Now() + sim.Millisecond) // deliver what the fault left in flight
	}
}
