package telemetry

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"conga/internal/sim"
)

// ringUnderTest drives one instantiation of the capture ring through the
// surface its owner exposes: offer i is an event at time i (a drop when
// drop is set, which only the packet trace can tell apart).
type ringUnderTest struct {
	offer func(i int, drop bool)
	times func() ([]sim.Time, error)
	info  func() CaptureInfo
}

func packetRing(capacity int, mode CaptureMode, trigger Trigger) ringUnderTest {
	tr := newPacketTrace(capacity, nil, mode, trigger)
	return ringUnderTest{
		offer: func(i int, drop bool) {
			kind := TraceSend
			if drop {
				kind = TraceDrop
			}
			rec(tr, sim.Time(i), kind)
		},
		times: func() ([]sim.Time, error) {
			var ts []sim.Time
			for _, e := range traceEvents(tr) {
				if e.Seq != int64(e.T) {
					return nil, fmt.Errorf("event at t=%d carries seq %d", e.T, e.Seq)
				}
				ts = append(ts, e.T)
			}
			return ts, nil
		},
		info: tr.Info,
	}
}

// decisionRing offers a metric vector derived from the time into a buffer
// it scribbles over afterwards, so a retained slot that aliased the caller's
// slice, or kept its evictee's bytes, shows up as a mismatch.
func decisionRing(capacity int, mode CaptureMode) ringUnderTest {
	tr := newDecisionTrace(capacity, mode)
	buf := make([]uint8, 2)
	return ringUnderTest{
		offer: func(i int, _ bool) {
			buf[0], buf[1] = uint8(i), uint8(i>>8)
			tr.record(sim.Time(i), 0, 1, i%2, ReasonNewFlowlet, int64(i), buf)
			buf[0], buf[1] = 0xff, 0xff
		},
		times: func() ([]sim.Time, error) {
			var ts []sim.Time
			for _, e := range decisionEvents(tr) {
				if want := []uint8{uint8(e.T), uint8(e.T >> 8)}; !reflect.DeepEqual(e.Metrics, want) {
					return nil, fmt.Errorf("event at t=%d carries metrics %v, want %v", e.T, e.Metrics, want)
				}
				ts = append(ts, e.T)
			}
			return ts, nil
		},
		info: tr.Info,
	}
}

// TestCaptureRingMatchesModel holds both instantiations of the capture ring,
// in both modes, against a model that keeps everything: of offers 1..n the
// ring retains the first cap (head) or the last cap (tail), hands them back
// in time order, and counts every other offer as suppressed. A packet trace
// frozen by a trigger retains what its mode keeps of the offers up to the
// freeze, whether or not the buffer had filled before the trigger fired.
func TestCaptureRingMatchesModel(t *testing.T) {
	const capacity = 8
	model := func(mode CaptureMode, n int) []sim.Time {
		from, to := 1, n
		switch {
		case n <= capacity:
		case mode == CaptureHead:
			to = capacity
		default:
			from = n - capacity + 1
		}
		var ts []sim.Time
		for i := from; i <= to; i++ {
			ts = append(ts, sim.Time(i))
		}
		return ts
	}
	cases := []struct {
		name   string
		offers int
		// dropAt, when nonzero, arms TriggerFirstDrop and makes that offer a
		// drop: offers past dropAt find the buffer frozen.
		dropAt int
	}{
		{name: "underfull", offers: 5},
		{name: "exactly full", offers: capacity},
		{name: "200 offers", offers: 200},
		{name: "1000 offers", offers: 1000},
		{name: "trigger before full", offers: 1000, dropAt: 5},
		{name: "trigger after full", offers: 1000, dropAt: 200},
	}
	for _, mode := range []CaptureMode{CaptureHead, CaptureTail} {
		for _, c := range cases {
			// Only the packet trace has triggers; the other cases run on both.
			rings := []ringUnderTest{packetRing(capacity, mode, 0), decisionRing(capacity, mode)}
			live := c.offers
			if c.dropAt != 0 {
				rings = []ringUnderTest{packetRing(capacity, mode, TriggerFirstDrop)}
				live = c.dropAt
			}
			for i, r := range rings {
				who := [...]string{"packet", "decision"}[i]
				t.Run(fmt.Sprintf("%s/%s/%s", who, mode, c.name), func(t *testing.T) {
					for i := 1; i <= c.offers; i++ {
						r.offer(i, i == c.dropAt)
					}
					got, err := r.times()
					if err != nil {
						t.Fatal(err)
					}
					if want := model(mode, live); !reflect.DeepEqual(got, want) {
						t.Fatalf("retained %v, want %v", got, want)
					}
					info := r.info()
					if info.Mode != mode || info.Cap != capacity || info.Recorded != len(got) ||
						info.Seen != c.offers || int(info.Suppressed) != c.offers-len(got) {
						t.Fatalf("info %+v after %d offers with %d retained", info, c.offers, len(got))
					}
				})
			}
		}
	}
}

// traceEvents and decisionEvents collect a trace's Each walk.
func traceEvents(tr *PacketTrace) []TraceEvent {
	var evs []TraceEvent
	tr.Each(func(e TraceEvent) { evs = append(evs, e) })
	return evs
}

func decisionEvents(tr *DecisionTrace) []DecisionEvent {
	var evs []DecisionEvent
	tr.Each(func(e DecisionEvent) { evs = append(evs, e) })
	return evs
}

// TestRecordSizes pins the retained record layouts: a full default trace
// and decision trail (65,536 slots each) hold 3.1 MB and 2.1 MB.
func TestRecordSizes(t *testing.T) {
	if n := unsafe.Sizeof(traceRecord{}); n > 48 {
		t.Errorf("traceRecord is %d bytes, want ≤ 48", n)
	}
	if n := unsafe.Sizeof(decisionRecord{}); n > 32 {
		t.Errorf("decisionRecord is %d bytes, want ≤ 32", n)
	}
}

// TestRecordRefusesValuesThatDoNotFit: a value wider than its record field
// panics with the field's name instead of being truncated.
func TestRecordRefusesValuesThatDoNotFit(t *testing.T) {
	const wide = 1 << 40
	cases := map[string]func(){
		"src": func() {
			newPacketTrace(4, nil, CaptureHead, 0).Record(1, TraceSend, "h0", 1, wide, 1, 2, 3, 4, 5)
		},
		"dst": func() {
			newPacketTrace(4, nil, CaptureHead, 0).Record(1, TraceSend, "h0", 1, 0, -wide, 2, 3, 4, 5)
		},
		"sport": func() {
			newPacketTrace(4, nil, CaptureHead, 0).Record(1, TraceSend, "h0", 1, 0, 1, wide, 3, 4, 5)
		},
		"dport": func() {
			newPacketTrace(4, nil, CaptureHead, 0).Record(1, TraceSend, "h0", 1, 0, 1, 2, wide, 4, 5)
		},
		"payload": func() {
			newPacketTrace(4, nil, CaptureHead, 0).Record(1, TraceSend, "h0", 1, 0, 1, 2, 3, 4, wide)
		},
		"src_leaf": func() { newDecisionTrace(4, CaptureHead).record(1, wide, 1, 0, ReasonNewFlowlet, 0, nil) },
		"dst_leaf": func() { newDecisionTrace(4, CaptureHead).record(1, 0, wide, 0, ReasonNewFlowlet, 0, nil) },
		"uplink":   func() { newDecisionTrace(4, CaptureHead).record(1, 0, 1, 1<<15, ReasonNewFlowlet, 0, nil) },
		"metrics":  func() { newDecisionTrace(4, CaptureHead).record(1, 0, 1, 0, ReasonNewFlowlet, 0, make([]uint8, 256)) },
		"where": func() {
			tr := newPacketTrace(1, nil, CaptureTail, 0)
			for i := 0; i <= 1<<16; i++ {
				tr.Record(1, TraceSend, fmt.Sprint("h", i), 1, 0, 1, 2, 3, 4, 5)
			}
		},
	}
	for field, fn := range cases {
		t.Run(field, func(t *testing.T) {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "telemetry: "+field+" ") {
					t.Fatalf("panic %q, want one naming %s", msg, field)
				}
			}()
			fn()
		})
	}
}

// TestDecisionSlabWidens: a vector longer than any before re-lays the slab
// and keeps every retained slot's candidates.
func TestDecisionSlabWidens(t *testing.T) {
	tr := newDecisionTrace(4, CaptureTail)
	want := [][]uint8{nil, {1}, {2, 3}, {4, 5, 6, 7}, {8}, {9, 10, 11}}
	for i, m := range want {
		tr.record(sim.Time(i), 0, 1, 0, ReasonNewFlowlet, 0, m)
	}
	var got [][]uint8
	for _, e := range decisionEvents(tr) {
		got = append(got, e.Metrics)
	}
	if !reflect.DeepEqual(got, want[2:]) {
		t.Fatalf("retained metrics %v, want %v", got, want[2:])
	}
}
