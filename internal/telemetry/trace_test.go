package telemetry

import (
	"reflect"
	"testing"

	"conga/internal/sim"
)

// rec offers one event with distinguishable time/kind and fixed plumbing.
func rec(tr *PacketTrace, t sim.Time, kind TraceKind) {
	tr.Record(t, kind, "l0->s0.0", 1, 0, 1, 10, 20, int64(t), 1500)
}

// checkInvariant asserts the accounting identity every capture mode must
// preserve: retained + suppressed == matching events seen.
func checkInvariant(t *testing.T, tr *PacketTrace) {
	t.Helper()
	info := tr.Info()
	if info.Recorded+int(info.Suppressed) != info.Seen {
		t.Fatalf("capture accounting broken: recorded %d + suppressed %d != seen %d",
			info.Recorded, info.Suppressed, info.Seen)
	}
}

func TestCaptureTailRing(t *testing.T) {
	tr := newPacketTrace(4, nil, CaptureTail, 0, 0)
	for i := 1; i <= 10; i++ {
		rec(tr, sim.Time(i), TraceSend)
	}
	evs := traceEvents(tr)
	if len(evs) != 4 {
		t.Fatalf("tail ring holds %d events, want 4", len(evs))
	}
	for i, want := range []sim.Time{7, 8, 9, 10} {
		if evs[i].T != want {
			t.Fatalf("tail event %d at t=%d, want t=%d (ring not rotated oldest-first)", i, evs[i].T, want)
		}
	}
	info := tr.Info()
	if info.Suppressed != 6 || info.Seen != 10 {
		t.Fatalf("tail accounting: suppressed %d seen %d, want 6 and 10", info.Suppressed, info.Seen)
	}
	checkInvariant(t, tr)
}

func TestCaptureReservoirSample(t *testing.T) {
	const capacity, total = 8, 200
	sample := func() []TraceEvent {
		tr := newPacketTrace(capacity, nil, CaptureReservoir, 0, 0)
		for i := 1; i <= total; i++ {
			rec(tr, sim.Time(i), TraceSend)
		}
		checkInvariant(t, tr)
		if got := tr.Info().Suppressed; got != total-capacity {
			t.Fatalf("reservoir suppressed %d, want %d", got, total-capacity)
		}
		return traceEvents(tr)
	}
	evs := sample()
	if len(evs) != capacity {
		t.Fatalf("reservoir holds %d events, want %d", len(evs), capacity)
	}
	seen := map[sim.Time]bool{}
	for i, e := range evs {
		if i > 0 && evs[i-1].T > e.T {
			t.Fatalf("reservoir events not time-sorted: %d before %d", evs[i-1].T, e.T)
		}
		if e.T < 1 || e.T > total || seen[e.T] {
			t.Fatalf("reservoir produced invalid or duplicate event t=%d", e.T)
		}
		seen[e.T] = true
	}
	// The sample must not degenerate to the head: with 200 offered events
	// and capacity 8, retaining only the first 8 would mean Algorithm R
	// never replaced anything.
	allHead := true
	for _, e := range evs {
		if e.T > capacity {
			allHead = false
		}
	}
	if allHead {
		t.Fatal("reservoir kept exactly the first events; replacement never happened")
	}
	// Private fixed-seed PRNG: the retained sample is reproducible.
	if again := sample(); !reflect.DeepEqual(evs, again) {
		t.Fatalf("reservoir sample not deterministic:\nfirst  %v\nsecond %v", evs, again)
	}
}

func TestTriggerFirstDropStopAfter(t *testing.T) {
	tr := newPacketTrace(64, nil, CaptureHead, TriggerFirstDrop, 2)
	for i := 1; i <= 3; i++ {
		rec(tr, sim.Time(i), TraceSend)
	}
	rec(tr, 4, TraceDrop)
	if !tr.Triggered || tr.TriggeredAt != 4 || tr.TriggerReason != "first-drop" {
		t.Fatalf("trigger state after drop: %+v", tr.Info())
	}
	if tr.Frozen() {
		t.Fatal("froze before the stop-after countdown ran")
	}
	for i := 5; i <= 9; i++ {
		rec(tr, sim.Time(i), TraceSend)
	}
	if !tr.Frozen() {
		t.Fatal("never froze after the countdown")
	}
	evs := traceEvents(tr)
	// 3 sends + the triggering drop (retained, does not consume the
	// countdown) + 2 post-trigger events.
	if len(evs) != 6 || evs[3].Kind != TraceDrop || evs[5].T != 6 {
		t.Fatalf("retained %d events ending t=%d, want 6 ending t=6: %v", len(evs), evs[len(evs)-1].T, evs)
	}
	if got := tr.Info().Suppressed; got != 3 {
		t.Fatalf("suppressed %d events after freeze, want 3", got)
	}
	checkInvariant(t, tr)
}

func TestTriggerFirstDropImmediate(t *testing.T) {
	tr := newPacketTrace(64, nil, CaptureHead, TriggerFirstDrop, 0)
	rec(tr, 1, TraceSend)
	rec(tr, 2, TraceDrop)
	rec(tr, 3, TraceSend)
	if !tr.Frozen() {
		t.Fatal("stop-after 0 must freeze on the triggering drop")
	}
	evs := traceEvents(tr)
	if len(evs) != 2 || evs[1].Kind != TraceDrop {
		t.Fatalf("want [send drop], got %v", evs)
	}
	checkInvariant(t, tr)
}

// TestTriggerAfterHeadFull pins the one countdown rule: it runs on every
// matching event past the trigger, retained or not, so a trigger that fires
// after a head buffer filled still freezes the trace.
func TestTriggerAfterHeadFull(t *testing.T) {
	tr := newPacketTrace(2, nil, CaptureHead, TriggerFirstDrop, 1)
	for i := 1; i <= 3; i++ {
		rec(tr, sim.Time(i), TraceSend)
	}
	rec(tr, 4, TraceDrop)
	if !tr.Triggered || tr.Frozen() {
		t.Fatalf("after the drop: triggered %v frozen %v, want fired with the countdown still to run", tr.Triggered, tr.Frozen())
	}
	rec(tr, 5, TraceSend)
	if !tr.Frozen() {
		t.Fatal("the countdown did not run on an event the full head buffer turned away")
	}
	if info := tr.Info(); info.Recorded != 2 || info.Suppressed != 3 {
		t.Fatalf("recorded %d suppressed %d, want 2 and 3", info.Recorded, info.Suppressed)
	}
}

// TestTriggerDropOutsideFilter pins the flight-recorder contract: a trace
// filtered to one flow still freezes on the first drop anywhere in the
// fabric — the drop event itself just isn't retained.
func TestTriggerDropOutsideFilter(t *testing.T) {
	flow := uint64(1)
	tr := newPacketTrace(64, &flow, CaptureHead, TriggerFirstDrop, 0)
	rec(tr, 1, TraceSend) // flow 1, retained
	tr.Record(2, TraceDrop, "l1->s0.0", 99, 2, 3, 30, 40, 0, 1500)
	if !tr.Triggered || !tr.Frozen() {
		t.Fatal("drop outside the filter must still fire and freeze the trigger")
	}
	rec(tr, 3, TraceSend) // flow 1, but frozen
	evs := traceEvents(tr)
	if len(evs) != 1 || evs[0].T != 1 {
		t.Fatalf("want only the pre-drop flow-1 event, got %v", evs)
	}
	checkInvariant(t, tr)
}

func TestTriggerRTO(t *testing.T) {
	var nilTrace *PacketTrace
	nilTrace.TriggerRTO(1) // must not panic: senders call unconditionally

	tr := newPacketTrace(64, nil, CaptureTail, TriggerFirstRTO, 0)
	rec(tr, 1, TraceSend)
	tr.TriggerRTO(2)
	tr.TriggerRTO(3) // second RTO is ignored; the first one wins
	rec(tr, 4, TraceSend)
	info := tr.Info()
	if !info.Triggered || info.TriggeredAt != 2 || info.TriggerReason != "first-rto" {
		t.Fatalf("RTO trigger state: %+v", info)
	}
	if tr.Len() != 1 || info.Suppressed != 1 {
		t.Fatalf("post-RTO event not suppressed: len %d suppressed %d", tr.Len(), info.Suppressed)
	}
	// A trace without the RTO trigger armed ignores the notification.
	un := newPacketTrace(64, nil, CaptureHead, TriggerFirstDrop, 0)
	un.TriggerRTO(5)
	if un.Triggered {
		t.Fatal("TriggerRTO fired on a trace armed only for drops")
	}
}

// TestTriggerStopManual drives fire, the stop path every trigger shares,
// with a reason no trigger uses: a tail capture freezes and keeps it.
func TestTriggerStopManual(t *testing.T) {
	tr := newPacketTrace(64, nil, CaptureTail, 0, 0)
	rec(tr, 1, TraceSend)
	tr.fire(2, "operator mark")
	rec(tr, 3, TraceSend)
	info := tr.Info()
	if !info.Triggered || info.TriggerReason != "operator mark" || !tr.Frozen() {
		t.Fatalf("manual stop state: %+v", info)
	}
	if tr.Len() != 1 {
		t.Fatalf("events recorded after manual stop: %d", tr.Len())
	}
}

func TestCaptureParseRoundTrips(t *testing.T) {
	for _, m := range []CaptureMode{CaptureHead, CaptureTail, CaptureReservoir} {
		got, err := ParseCaptureMode(m.String())
		if err != nil || got != m {
			t.Fatalf("mode %v round-trip: got %v err %v", m, got, err)
		}
	}
	if _, err := ParseCaptureMode("ring"); err == nil {
		t.Fatal("ParseCaptureMode accepted garbage")
	}
	for _, g := range []Trigger{0, TriggerFirstDrop, TriggerFirstRTO, TriggerFirstDrop | TriggerFirstRTO} {
		got, err := ParseTrigger(g.String())
		if err != nil || got != g {
			t.Fatalf("trigger %v (%q) round-trip: got %v err %v", g, g.String(), got, err)
		}
	}
	if _, err := ParseTrigger("on-fire"); err == nil {
		t.Fatal("ParseTrigger accepted garbage")
	}
}
