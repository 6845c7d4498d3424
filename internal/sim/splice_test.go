package sim

import (
	"testing"
)

// TestSpliceOrderAgainstEvents interleaves a spliced batch with ordinary
// events sharing timestamps and checks the exact (time, seq) execution
// order: spliced entries take consecutive seqs at the call, so an ordinary
// event scheduled before the splice wins its time tie, and one scheduled
// after loses it.
func TestSpliceOrderAgainstEvents(t *testing.T) {
	e := New()
	var order []int
	rec := func(id int) Event { return func(Time) { order = append(order, id) } }
	e.At(10, rec(1)) // before the splice: wins the t=10 tie
	e.Splice([]Time{5, 10, 20}, rec(100))
	e.At(10, rec(2)) // after the splice: loses the t=10 tie
	e.At(15, rec(3))
	e.Run(MaxTime)
	want := []int{100, 1, 100, 2, 3, 100}
	if len(order) != len(want) {
		t.Fatalf("executed %d events, want %d: %v", len(order), len(want), order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("execution order %v, want %v", order, want)
		}
	}
	if e.Pending() != 0 || e.Live() != 0 {
		t.Fatalf("pending %d live %d after drain", e.Pending(), e.Live())
	}
}

// TestSpliceOverlappingStreams runs two overlapping batches (as the
// parallel fabric produces when a long serialization tail crosses a window
// boundary) and checks they merge by (time, seq).
func TestSpliceOverlappingStreams(t *testing.T) {
	e := New()
	var order []int
	e.Splice([]Time{10, 30, 50}, func(Time) { order = append(order, 1) })
	e.Splice([]Time{20, 30, 40}, func(Time) { order = append(order, 2) })
	e.Run(MaxTime)
	want := []int{1, 2, 1, 2, 2, 1} // 10, 20, 30(batch1 first: smaller seq), 30, 40, 50
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("execution order %v, want %v", order, want)
		}
	}
}

// TestSpliceCountsAndBounds checks live/pending accounting, the Run(until)
// cut, executed counting, and buffer reuse across batches.
func TestSpliceCountsAndBounds(t *testing.T) {
	e := New()
	n := 0
	e.Splice([]Time{1, 2, 3, 4}, func(Time) { n++ })
	if e.Pending() != 4 || e.Live() != 4 {
		t.Fatalf("pending %d live %d after splice, want 4/4", e.Pending(), e.Live())
	}
	if at, ok := e.NextAt(); !ok || at != 1 {
		t.Fatalf("NextAt = %v %v, want 1 true", at, ok)
	}
	e.Run(2)
	if n != 2 || e.Pending() != 2 || e.Now() != 2 {
		t.Fatalf("after Run(2): fired %d, pending %d, now %v", n, e.Pending(), e.Now())
	}
	e.Run(MaxTime)
	if n != 4 || e.Executed() != 4 {
		t.Fatalf("fired %d executed %d, want 4/4", n, e.Executed())
	}
	// A second batch must reuse the recycled buffer.
	if len(e.timeBufs) != 1 {
		t.Fatalf("expected 1 recycled buffer, have %d", len(e.timeBufs))
	}
	e.Splice([]Time{10}, func(Time) { n++ })
	if len(e.timeBufs) != 0 {
		t.Fatal("second splice should take the recycled buffer")
	}
	e.Run(MaxTime)
	if n != 5 {
		t.Fatalf("fired %d, want 5", n)
	}
}

// TestSpliceRejectsUnsorted pins the validation contract.
func TestSpliceRejectsUnsorted(t *testing.T) {
	e := New()
	for _, times := range [][]Time{{10, 5}, {-1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Splice(%v) should panic", times)
				}
			}()
			e.Splice(times, func(Time) {})
		}()
	}
	e.Splice(nil, func(Time) {}) // empty batch is a no-op
	if e.Pending() != 0 {
		t.Fatal("empty splice must not count")
	}
}
