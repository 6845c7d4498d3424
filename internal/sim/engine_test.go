package sim

import (
	"slices"
	"testing"
	"time"
	"unsafe"

	"conga/internal/prefetch"
)

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := New()
	var order []int
	e.At(30, func(Time) { order = append(order, 3) })
	e.At(10, func(Time) { order = append(order, 1) })
	e.At(20, func(Time) { order = append(order, 2) })
	e.Run(MaxTime)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events ran out of order: %v", order)
	}
}

func TestEngineTieBreaksByInsertionOrder(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(42, func(Time) { order = append(order, i) })
	}
	e.Run(MaxTime)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events reordered at index %d: got %d", i, v)
		}
	}
}

func TestEngineClockAdvancesToEventTime(t *testing.T) {
	e := New()
	var seen Time
	e.At(5*Microsecond, func(now Time) { seen = now })
	e.Run(MaxTime)
	if seen != 5*Microsecond {
		t.Fatalf("callback saw now=%v, want 5µs", seen)
	}
	if e.Now() != 5*Microsecond {
		t.Fatalf("engine clock %v, want 5µs", e.Now())
	}
}

func TestEngineRunUntilIsInclusive(t *testing.T) {
	e := New()
	ran := 0
	e.At(100, func(Time) { ran++ })
	e.At(101, func(Time) { ran++ })
	e.Run(100)
	if ran != 1 {
		t.Fatalf("ran %d events, want exactly the one at t=100", ran)
	}
	if e.Now() != 100 {
		t.Fatalf("clock %v, want 100", e.Now())
	}
}

func TestEngineRunAdvancesClockWhenQueueEmpty(t *testing.T) {
	e := New()
	e.Run(7 * Millisecond)
	if e.Now() != 7*Millisecond {
		t.Fatalf("clock %v, want 7ms", e.Now())
	}
}

func TestEngineAfterSchedulesRelative(t *testing.T) {
	e := New()
	var at Time
	e.At(10, func(Time) {
		e.After(25, func(now Time) { at = now })
	})
	e.Run(MaxTime)
	if at != 35 {
		t.Fatalf("relative event at %v, want 35", at)
	}
}

func TestEngineSchedulingInPastPanics(t *testing.T) {
	e := New()
	e.At(100, func(Time) {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(50, func(Time) {})
	})
	e.Run(MaxTime)
}

func TestEngineNegativeDelayPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	e.After(-1, func(Time) {})
}

func TestEventHandleCancel(t *testing.T) {
	e := New()
	ran := false
	h := e.At(10, func(Time) { ran = true })
	if !h.Pending() {
		t.Fatal("handle should be pending before run")
	}
	if !h.Cancel() {
		t.Fatal("first cancel should report true")
	}
	if h.Cancel() {
		t.Fatal("second cancel should report false")
	}
	e.Run(MaxTime)
	if ran {
		t.Fatal("cancelled event ran")
	}
}

func TestEventHandleCancelAfterRunIsNoop(t *testing.T) {
	e := New()
	h := e.At(10, func(Time) {})
	e.Run(MaxTime)
	if h.Cancel() {
		t.Fatal("cancelling an executed event should report false")
	}
}

func TestCancelRemovesEventFromQueueImmediately(t *testing.T) {
	e := New()
	var hs []EventHandle
	for i := 0; i < 10; i++ {
		hs = append(hs, e.At(Time(100+i), func(Time) {}))
	}
	if e.Pending() != 10 {
		t.Fatalf("Pending() = %d, want 10", e.Pending())
	}
	// A cancelled event must leave the queue at once — not linger (holding
	// its closure live) until its scheduled time arrives.
	hs[3].Cancel()
	hs[7].Cancel()
	if e.Pending() != 8 {
		t.Fatalf("Pending() = %d after two cancels, want 8", e.Pending())
	}
	e.Run(MaxTime)
	if e.Executed() != 8 {
		t.Fatalf("executed %d, want 8", e.Executed())
	}
}

func TestStaleHandleCannotTouchRecycledEvent(t *testing.T) {
	e := New()
	h := e.At(10, func(Time) {})
	e.Run(MaxTime)
	// The executed event's slot is recycled; this new event may reuse it.
	ran := false
	e.At(20, func(Time) { ran = true })
	if h.Pending() {
		t.Fatal("stale handle reports pending")
	}
	if h.Cancel() {
		t.Fatal("stale handle cancelled a recycled event")
	}
	e.Run(MaxTime)
	if !ran {
		t.Fatal("event scheduled after recycle did not run")
	}
}

func TestRandomizedScheduleCancelKeepsOrder(t *testing.T) {
	e := New()
	r := NewRand(7)
	type rec struct {
		at        Time
		seq       int
		cancelled bool
	}
	var want []rec
	var hs []EventHandle
	var got []int
	for i := 0; i < 2000; i++ {
		at := Time(r.Intn(500))
		i := i
		want = append(want, rec{at: at, seq: i})
		hs = append(hs, e.At(at, func(Time) { got = append(got, i) }))
	}
	for i := 0; i < 700; i++ {
		k := r.Intn(len(hs))
		if hs[k].Cancel() {
			want[k].cancelled = true
		}
	}
	e.Run(MaxTime)
	var expect []int
	for at := Time(0); at < 500; at++ {
		for _, w := range want {
			if w.at == at && !w.cancelled {
				expect = append(expect, w.seq)
			}
		}
	}
	if len(got) != len(expect) {
		t.Fatalf("ran %d events, want %d", len(got), len(expect))
	}
	for i := range expect {
		if got[i] != expect[i] {
			t.Fatalf("execution order diverged at %d: got %d, want %d", i, got[i], expect[i])
		}
	}
}

func TestEngineStop(t *testing.T) {
	e := New()
	ran := 0
	e.At(10, func(Time) { ran++; e.Stop() })
	e.At(20, func(Time) { ran++ })
	e.Run(MaxTime)
	if ran != 1 {
		t.Fatalf("ran %d events after Stop, want 1", ran)
	}
	// Run can resume afterwards.
	e.Run(MaxTime)
	if ran != 2 {
		t.Fatalf("ran %d events after resume, want 2", ran)
	}
}

func TestEngineExecutedCount(t *testing.T) {
	e := New()
	for i := Time(1); i <= 10; i++ {
		e.At(i, func(Time) {})
	}
	e.Run(MaxTime)
	if e.Executed() != 10 {
		t.Fatalf("executed %d, want 10", e.Executed())
	}
}

func TestTickerFiresPeriodically(t *testing.T) {
	e := New()
	var fires []Time
	NewTicker(e, 10*Microsecond, func(now Time) { fires = append(fires, now) })
	e.Run(35 * Microsecond)
	want := []Time{10 * Microsecond, 20 * Microsecond, 30 * Microsecond}
	if len(fires) != len(want) {
		t.Fatalf("fired %d times, want %d (%v)", len(fires), len(want), fires)
	}
	for i := range want {
		if fires[i] != want[i] {
			t.Fatalf("fire %d at %v, want %v", i, fires[i], want[i])
		}
	}
}

func TestTickerNonPositivePeriodPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Error("zero period did not panic")
		}
	}()
	NewTicker(e, 0, func(Time) {})
}

func TestDurationConversion(t *testing.T) {
	if Duration(time.Millisecond) != Millisecond {
		t.Fatalf("Duration(1ms) = %v", Duration(time.Millisecond))
	}
	if got := (2500 * Microsecond).Seconds(); got != 0.0025 {
		t.Fatalf("Seconds() = %v, want 0.0025", got)
	}
}

func TestEngineManyEventsDrainCompletely(t *testing.T) {
	e := New()
	const n = 10000
	r := NewRand(1)
	ran := 0
	for i := 0; i < n; i++ {
		e.At(Time(r.Intn(1000)), func(Time) { ran++ })
	}
	e.Run(MaxTime)
	if ran != n {
		t.Fatalf("ran %d, want %d", ran, n)
	}
	if e.Pending() != 0 {
		t.Fatalf("%d events still pending", e.Pending())
	}
}

func TestRunMaxTimeStopsWhenOnlyDaemonsRemain(t *testing.T) {
	e := New()
	ticks := 0
	NewTicker(e, 10, func(Time) { ticks++ })
	done := false
	e.At(35, func(Time) { done = true })
	e.Run(MaxTime)
	if !done {
		t.Fatal("live event did not run")
	}
	// Ticker fired at 10, 20, 30 alongside the live event; after t=35 no
	// live work remains so the run must terminate.
	if ticks != 3 {
		t.Fatalf("ticker fired %d times, want 3", ticks)
	}
	if e.Now() != 35 {
		t.Fatalf("clock %v, want 35", e.Now())
	}
}

// TestRunBeforeNowRunsNothing: a bounded run whose horizon lies behind the
// clock executes nothing, leaves the clock where it is and keeps every
// pending event for a later run.
func TestRunBeforeNowRunsNothing(t *testing.T) {
	e := New()
	ran := 0
	e.At(100, func(Time) { ran++ })
	e.At(300, func(Time) { ran++ })
	e.Run(200)
	if got := e.Run(150); got != 200 || e.Now() != 200 || ran != 1 || e.Pending() != 1 {
		t.Fatalf("Run(150) at 200 returned %v, clock %v, ran %d, pending %d; want 200, 200, 1, 1",
			got, e.Now(), ran, e.Pending())
	}
	if e.Run(-1); e.Now() != 200 {
		t.Fatalf("Run(-1) moved the clock to %v", e.Now())
	}
	if e.Run(MaxTime); ran != 2 || e.Now() != 300 {
		t.Fatalf("after the past runs, Run(MaxTime) ran %d events and ended at %v, want 2 and 300", ran, e.Now())
	}
}

func TestCancelLiveEventAllowsMaxTimeRunToEnd(t *testing.T) {
	e := New()
	NewTicker(e, 10, func(Time) {})
	h := e.At(1000, func(Time) {})
	h.Cancel()
	e.Run(MaxTime) // must not hang: the only live event was cancelled
	if e.Executed() != 0 {
		t.Fatalf("executed %d events, want 0", e.Executed())
	}
}

// countNode is a caller-owned node the way a model object embeds one.
type countNode struct {
	Node
	fired []Time
}

func (c *countNode) Fire(now Time) { c.fired = append(c.fired, now) }

// TestNodeOwnership covers the rules a caller-owned node lives by: the zero
// value is idle, one firing at a time (AtNode on a pending node panics
// rather than corrupting the bucket it sits in), CancelNode reports whether
// there was anything to cancel, and a fired or cancelled node can be
// scheduled again.
func TestNodeOwnership(t *testing.T) {
	e := New()
	var n countNode
	if n.Pending() || e.CancelNode(&n.Node) {
		t.Fatal("zero node is not idle")
	}
	e.AtNode(10, &n.Node, &n)
	if !n.Pending() || e.Pending() != 1 || e.Live() != 1 {
		t.Fatalf("after AtNode: pending %v, engine %d/%d", n.Pending(), e.Pending(), e.Live())
	}
	for _, again := range []func(){
		func() { e.AtNode(20, &n.Node, &n) },
		func() { e.AtNodeSeq(20, &n.Node, &n, e.ReserveSeq()) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("scheduling a pending node did not panic")
				}
			}()
			again()
		}()
	}
	if !e.CancelNode(&n.Node) || n.Pending() || e.Pending() != 0 || e.Live() != 0 {
		t.Fatal("CancelNode did not remove the pending node")
	}
	if e.CancelNode(&n.Node) {
		t.Fatal("second CancelNode reported a pending node")
	}
	e.AtNode(30, &n.Node, &n)
	e.Run(MaxTime)
	e.AtNode(40, &n.Node, &n) // fired: idle again
	e.Run(MaxTime)
	if len(n.fired) != 2 || n.fired[0] != 30 || n.fired[1] != 40 {
		t.Fatalf("fired at %v, want [30 40]", n.fired)
	}
	if unsafe.Sizeof(n.Node) > 64 {
		t.Fatalf("Node is %d bytes, want ≤ 64", unsafe.Sizeof(n.Node))
	}
}

// firingLog records (time, id) per firing; logNode is a caller-owned node
// that logs itself.
type firing struct {
	at Time
	id int
}

type firingLog []firing

func (l *firingLog) closure(id int) Event {
	return func(now Time) { *l = append(*l, firing{now, id}) }
}

type logNode struct {
	Node
	id  int
	log *firingLog
}

func (n *logNode) Fire(now Time) { *n.log = append(*n.log, firing{now, n.id}) }

// TestHandlerMayChangeThePeekedNode: before Run fires event i it peeks the
// level-0 minimum — event i+1 as things stand — and prefetches it. The peek
// is only a hint: event i's handler may cancel that node, re-arm it earlier
// or later, or (a pooled closure node) get it recycled and reused, and the
// firing order must stay the (time, seq) order a sorted queue gives.
func TestHandlerMayChangeThePeekedNode(t *testing.T) {
	const a, b, c, d = 1, 2, 3, 4
	cases := []struct {
		name string
		// change runs inside a's firing at t=10, with b — scheduled for bAt —
		// the queue's minimum; c waits at t=60.
		bAt    Time
		change func(e *Engine, nb *logNode)
		want   []firing
	}{
		{"cancel", 11, func(e *Engine, nb *logNode) { e.CancelNode(&nb.Node) },
			[]firing{{10, a}, {60, c}}},
		{"re-arm earlier", 50, func(e *Engine, nb *logNode) { e.CancelNode(&nb.Node); e.AtNode(20, &nb.Node, nb) },
			[]firing{{10, a}, {20, b}, {60, c}}},
		{"re-arm at the current instant", 50, func(e *Engine, nb *logNode) { e.CancelNode(&nb.Node); e.AtNode(10, &nb.Node, nb) },
			[]firing{{10, a}, {10, b}, {60, c}}},
		{"re-arm later, past level 0", 11, func(e *Engine, nb *logNode) { e.CancelNode(&nb.Node); e.AtNode(5000, &nb.Node, nb) },
			[]firing{{10, a}, {60, c}, {5000, b}}},
		{"re-arm later, into the far heap", 11, func(e *Engine, nb *logNode) { e.CancelNode(&nb.Node); e.AtNode(3600*Second, &nb.Node, nb) },
			[]firing{{10, a}, {60, c}, {3600 * Second, b}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := New()
			var log firingLog
			nb := &logNode{id: b, log: &log}
			e.At(10, func(now Time) {
				log.closure(a)(now)
				tc.change(e, nb)
			})
			e.AtNode(tc.bAt, &nb.Node, nb)
			e.At(60, log.closure(c))
			e.Run(MaxTime)
			if !slices.Equal(log, tc.want) {
				t.Fatalf("fired %v, want %v", log, tc.want)
			}
		})
	}

	// The peeked node is a pooled closure node: a's firing cancels it, which
	// recycles it, and schedules d, which takes the very node — now holding
	// a different closure, time and sequence number — while Run's hint is in
	// flight. d fires once, at its own time; b never does.
	t.Run("pooled node recycled and reused", func(t *testing.T) {
		e := New()
		var log firingLog
		var hb, hd EventHandle
		e.At(10, func(now Time) {
			log.closure(a)(now)
			if !hb.Cancel() {
				t.Error("peeked closure was not pending")
			}
			hd = e.At(70, log.closure(d))
		})
		hb = e.At(11, log.closure(b))
		e.At(60, log.closure(c))
		e.Run(MaxTime)
		if hd.ev != hb.ev {
			t.Fatal("scenario lost: d did not reuse b's pooled node")
		}
		if want := []firing{{10, a}, {60, c}, {70, d}}; !slices.Equal(log, want) {
			t.Fatalf("fired %v, want %v", log, want)
		}
		if hb.Pending() || hb.Cancel() {
			t.Fatal("stale handle still acts on the reused node")
		}
	})
}

// TestPrefetchOfRecycledNodeIsHarmless: Run's hint may land on a pooled node
// that has since fired and gone back to the free list — 56 bytes, so the
// hinted span also runs past its end. Nothing faults and the node keeps its
// state.
func TestPrefetchOfRecycledNodeIsHarmless(t *testing.T) {
	e := New()
	h := e.At(5, func(Time) {})
	e.Run(MaxTime)
	if len(e.free) != 1 || e.free[0] != h.ev {
		t.Fatal("fired closure node was not recycled")
	}
	before := *h.ev
	prefetch.Lines2(unsafe.Pointer(h.ev))
	if *h.ev != before {
		t.Fatalf("node changed under the hint: %+v, was %+v", *h.ev, before)
	}
	e.At(9, func(Time) {})
	if e.Run(MaxTime) != 9 {
		t.Fatal("engine did not run on after the hint")
	}
}
