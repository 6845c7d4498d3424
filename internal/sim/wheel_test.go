package sim

import (
	"sort"
	"testing"
)

// Spans chosen to exercise every wheel level plus the far-future heap:
// level 0 (< 4.1 µs), level 1 (< ~2.1 ms), level 2 (< ~1.07 s),
// level 3 (< ~9.2 min), and beyond the wheel horizon.
var crossLevelDeltas = []Time{
	0, 1, 100, 4095, // level 0
	4096, 50 * Microsecond, 2 * Millisecond, // level 1
	3 * Millisecond, 500 * Millisecond, // level 2
	2 * Second, 8 * 60 * Second, // level 3
	10 * 60 * Second, 3600 * Second, // far heap
}

func TestWheelMultiLevelSpansRunInOrder(t *testing.T) {
	e := New()
	var got []Time
	// Insert in reverse so correctness depends on ordering, not insertion.
	for i := len(crossLevelDeltas) - 1; i >= 0; i-- {
		at := crossLevelDeltas[i]
		e.At(at, func(now Time) { got = append(got, now) })
	}
	e.Run(MaxTime)
	if len(got) != len(crossLevelDeltas) {
		t.Fatalf("ran %d events, want %d", len(got), len(crossLevelDeltas))
	}
	for i, at := range crossLevelDeltas {
		if got[i] != at {
			t.Fatalf("event %d ran at %v, want %v", i, got[i], at)
		}
	}
}

func TestWheelHeapSameTimeTieBreaksByInsertionOrder(t *testing.T) {
	e := New()
	var got []string
	tie := 700 * Second
	// From now=0, 700 s is beyond the wheel horizon (~9.2 min): far heap.
	e.At(tie, func(Time) { got = append(got, "heap") })
	e.At(200*Second, func(Time) {})
	e.Run(200*Second + 1)
	// The wheel drained, so this insert re-anchors at now=200 s and the
	// same timestamp now lands in the wheel. The heap-resident event was
	// scheduled first and must still run first.
	e.At(tie, func(Time) { got = append(got, "wheel") })
	e.At(tie, func(Time) { got = append(got, "wheel2") })
	e.Run(MaxTime)
	want := []string{"heap", "wheel", "wheel2"}
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order diverged at %d: got %v, want %v", i, got, want)
		}
	}
}

// A bounded Run can cascade the wheel's windows past `until` and then hand
// control back; a later schedule into the gap behind the advanced level-0
// base must not collide with already-cascaded slots.
func TestWheelInsertBehindBaseAfterBoundedRun(t *testing.T) {
	e := New()
	var got []Time
	record := func(now Time) { got = append(got, now) }
	e.At(10000, record) // overflow level 1 from now=0
	e.Run(5000)         // cascades; returns with now=5000 < wheel base
	if e.Now() != 5000 {
		t.Fatalf("now = %v, want 5000", e.Now())
	}
	e.At(6000, record) // behind the advanced level-0 base
	e.At(9096, record) // same level-0 slot as 5000+4096 would be
	e.Run(MaxTime)
	want := []Time{6000, 9096, 10000}
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order diverged at %d: got %v, want %v", i, got, want)
		}
	}
}

func TestWheelCancelAcrossLevels(t *testing.T) {
	e := New()
	var got []Time
	var hs []EventHandle
	for _, at := range crossLevelDeltas {
		at := at
		hs = append(hs, e.At(at, func(now Time) { got = append(got, now) }))
	}
	// Cancel every other event, spanning every level and the far heap.
	for i, h := range hs {
		if i%2 == 1 {
			if !h.Cancel() {
				t.Fatalf("cancel %d failed", i)
			}
		}
	}
	if got := e.Pending(); got != (len(hs)+1)/2 {
		t.Fatalf("pending = %d, want %d", got, (len(hs)+1)/2)
	}
	e.Run(MaxTime)
	var want []Time
	for i, at := range crossLevelDeltas {
		if i%2 == 0 {
			want = append(want, at)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order diverged at %d: got %v, want %v", i, got, want)
		}
	}
}

// Randomized stress across all wheel levels: batches of events with spans
// from sub-slot to beyond the wheel horizon, interleaved with bounded runs
// and cancellations. Execution order must match a (time, seq) sort of the
// surviving events, exactly as with the reference heap engine.
func TestWheelRandomizedCrossLevelOrder(t *testing.T) {
	e := New()
	r := NewRand(42)
	type rec struct {
		at        Time
		seq       int
		cancelled bool
	}
	var all []rec
	var hs []EventHandle
	var got []int
	spans := []Time{4096, 2 * Millisecond, Second, 9 * 60 * Second, 3600 * Second}
	for batch := 0; batch < 40; batch++ {
		for i := 0; i < 100; i++ {
			span := spans[r.Intn(len(spans))]
			at := e.Now() + Time(r.Intn(int(span)))
			seq := len(all)
			all = append(all, rec{at: at, seq: seq})
			if r.Intn(8) == 0 {
				e.AtDaemon(at, func(Time) { got = append(got, seq) })
				hs = append(hs, EventHandle{}) // daemons stay uncancelled
			} else {
				hs = append(hs, e.At(at, func(Time) { got = append(got, seq) }))
			}
		}
		for i := 0; i < 30; i++ {
			k := r.Intn(len(hs))
			if hs[k].Cancel() {
				all[k].cancelled = true
			}
		}
		e.Run(e.Now() + Time(r.Intn(int(3*Second))))
	}
	// Bounded final drain: Run(MaxTime) would stop once only daemon
	// events remain, but here the daemons are part of the expected order.
	e.Run(e.Now() + 2*3600*Second)
	var expect []rec
	for _, w := range all {
		if !w.cancelled {
			expect = append(expect, w)
		}
	}
	sort.SliceStable(expect, func(i, j int) bool {
		if expect[i].at != expect[j].at {
			return expect[i].at < expect[j].at
		}
		return expect[i].seq < expect[j].seq
	})
	if len(got) != len(expect) {
		t.Fatalf("ran %d events, want %d", len(got), len(expect))
	}
	for i := range expect {
		if got[i] != expect[i].seq {
			t.Fatalf("execution order diverged at %d: got %d, want %d", i, got[i], expect[i].seq)
		}
	}
}

// TestNearEventsAreNotRequeued: an event less than one level-0 block ahead
// goes straight into level 0 at any clock phase — into the window's second
// block, or past it after the window moves one block on — so it is placed
// once and never moved down. 10⁵ events, each 0–4095 ns ahead of a clock
// that bounded runs stop at random instants, run in exact (time, seq) order
// with no bucket moved down and nothing in the far heap.
func TestNearEventsAreNotRequeued(t *testing.T) {
	e := New()
	r := NewRand(26)
	type rec struct {
		at Time
		id int
	}
	var want []rec
	var got []int
	for len(want) < 100000 {
		for i := r.Intn(8); i >= 0; i-- {
			at, id := e.Now()+Time(r.Intn(l0Block)), len(want)
			want = append(want, rec{at, id})
			e.At(at, func(Time) { got = append(got, id) })
		}
		e.Run(e.Now() + Time(r.Intn(3*l0Block)))
	}
	e.Run(MaxTime)
	sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i].id {
			t.Fatalf("execution order diverged at %d: got %d, want %d", i, got[i], want[i].id)
		}
	}
	if e.Requeued() != 0 || e.Cascades() != 0 || e.FarPushes() != 0 {
		t.Fatalf("%d events requeued in %d buckets, %d far pushes; want none", e.Requeued(), e.Cascades(), e.FarPushes())
	}
}
