package telemetry

import (
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
	tr := newPacketTrace(4, nil, CaptureTail, 0)
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

func TestTriggerFirstDropImmediate(t *testing.T) {
	tr := newPacketTrace(64, nil, CaptureHead, TriggerFirstDrop)
	rec(tr, 1, TraceSend)
	rec(tr, 2, TraceDrop)
	rec(tr, 3, TraceSend)
	if info := tr.Info(); !info.Triggered || info.TriggeredAt != 2 || info.TriggerReason != "first-drop" {
		t.Fatalf("trigger state after the drop: %+v", info)
	}
	evs := traceEvents(tr)
	if len(evs) != 2 || evs[1].Kind != TraceDrop {
		t.Fatalf("want [send drop], got %v", evs)
	}
	checkInvariant(t, tr)
}

// TestTriggerAfterHeadFull: a trigger that fires after a head buffer filled
// still fires, and every later event counts as suppressed.
func TestTriggerAfterHeadFull(t *testing.T) {
	tr := newPacketTrace(2, nil, CaptureHead, TriggerFirstDrop)
	for i := 1; i <= 3; i++ {
		rec(tr, sim.Time(i), TraceSend)
	}
	rec(tr, 4, TraceDrop)
	if !tr.Triggered || tr.TriggeredAt != 4 {
		t.Fatalf("after the drop the full head buffer did not fire: %+v", tr.Info())
	}
	rec(tr, 5, TraceSend)
	if info := tr.Info(); info.Recorded != 2 || info.Suppressed != 3 {
		t.Fatalf("recorded %d suppressed %d, want 2 and 3", info.Recorded, info.Suppressed)
	}
	checkInvariant(t, tr)
}

// TestTriggerDropOutsideFilter pins the flight-recorder contract: a trace
// filtered to one flow still freezes on the first drop anywhere in the
// fabric — the drop event itself just isn't retained.
func TestTriggerDropOutsideFilter(t *testing.T) {
	flow := uint64(1)
	tr := newPacketTrace(64, &flow, CaptureHead, TriggerFirstDrop)
	rec(tr, 1, TraceSend) // flow 1, retained
	tr.Record(2, TraceDrop, "l1->s0.0", 99, 2, 3, 30, 40, 0, 1500)
	if !tr.Triggered {
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

	tr := newPacketTrace(64, nil, CaptureTail, TriggerFirstRTO)
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
	un := newPacketTrace(64, nil, CaptureHead, TriggerFirstDrop)
	un.TriggerRTO(5)
	if un.Triggered {
		t.Fatal("TriggerRTO fired on a trace armed only for drops")
	}
}

// TestTriggerStopManual drives fire, the stop path both triggers share,
// directly: a tail capture freezes and names its trigger as the reason.
func TestTriggerStopManual(t *testing.T) {
	tr := newPacketTrace(64, nil, CaptureTail, TriggerFirstRTO)
	rec(tr, 1, TraceSend)
	tr.fire(2)
	rec(tr, 3, TraceSend)
	info := tr.Info()
	if !info.Triggered || info.TriggeredAt != 2 || info.TriggerReason != "first-rto" {
		t.Fatalf("manual stop state: %+v", info)
	}
	if tr.Len() != 1 {
		t.Fatalf("events recorded after manual stop: %d", tr.Len())
	}
}

// TestCaptureParseRoundTrips: every mode and trigger parses back from its
// name, "" is the default, and anything else — a combination of triggers
// or one of the aliases older flags took — is refused.
func TestCaptureParseRoundTrips(t *testing.T) {
	for _, m := range []CaptureMode{CaptureHead, CaptureTail} {
		got, err := ParseCaptureMode(m.String())
		if err != nil || got != m {
			t.Fatalf("mode %v round-trip: got %v err %v", m, got, err)
		}
	}
	for _, g := range []Trigger{0, TriggerFirstDrop, TriggerFirstRTO} {
		got, err := ParseTrigger(g.String())
		if err != nil || got != g {
			t.Fatalf("trigger %v (%q) round-trip: got %v err %v", g, g.String(), got, err)
		}
	}
	if m, err := ParseCaptureMode(""); m != CaptureHead || err != nil {
		t.Fatalf(`ParseCaptureMode(""): %v, %v`, m, err)
	}
	if g, err := ParseTrigger(""); g != 0 || err != nil {
		t.Fatalf(`ParseTrigger(""): %v, %v`, g, err)
	}
	for _, s := range []string{"ring", "reservoir"} {
		if _, err := ParseCaptureMode(s); err == nil {
			t.Errorf("ParseCaptureMode accepted %q", s)
		}
	}
	for _, s := range []string{"on-fire", "drop", "rto", "first-drop|first-rto", "first-drop,first-rto"} {
		if _, err := ParseTrigger(s); err == nil {
			t.Errorf("ParseTrigger accepted %q", s)
		}
	}
}
