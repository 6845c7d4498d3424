package core

import (
	"testing"

	"conga/internal/sim"
)

// readMetric reads one aged entry through Metrics, the decision path's read.
func readMetric(t *CongestionToLeaf, destLeaf, uplink int, now sim.Time) uint8 {
	return t.Metrics(destLeaf, now, make([]uint8, t.n))[uplink]
}

func TestCongestionToLeafStoresAndReads(t *testing.T) {
	p := testParams()
	ct := NewCongestionToLeaf(4, 4, p)
	ct.Update(2, 1, 5, 0)
	if got := readMetric(ct, 2, 1, 0); got != 5 {
		t.Fatalf("metric = %d, want 5", got)
	}
	if got := readMetric(ct, 2, 0, 0); got != 0 {
		t.Fatalf("untouched metric = %d, want 0", got)
	}
}

func TestCongestionToLeafAging(t *testing.T) {
	p := testParams() // AgeTimeout = 10ms
	ct := NewCongestionToLeaf(2, 2, p)
	ct.Update(0, 0, 6, 0)
	age := p.AgeTimeout

	// Within the age timeout: full value.
	if got := readMetric(ct, 0, 0, age); got != 6 {
		t.Fatalf("metric at exactly AgeTimeout = %d, want 6", got)
	}
	// Halfway through the decay window: roughly half.
	got := readMetric(ct, 0, 0, age+age/2)
	if got != 3 {
		t.Fatalf("metric halfway through decay = %d, want 3", got)
	}
	// Past 2× AgeTimeout: zero, guaranteeing stale paths get re-probed.
	if got := readMetric(ct, 0, 0, 2*age+1); got != 0 {
		t.Fatalf("metric after decay window = %d, want 0", got)
	}
}

func TestCongestionToLeafUpdateResetsAge(t *testing.T) {
	p := testParams()
	ct := NewCongestionToLeaf(1, 1, p)
	ct.Update(0, 0, 7, 0)
	ct.Update(0, 0, 7, p.AgeTimeout) // refresh at the boundary
	if got := readMetric(ct, 0, 0, 2*p.AgeTimeout-1); got != 7 {
		t.Fatalf("refreshed metric decayed early: %d, want 7", got)
	}
}

func TestCongestionToLeafMetricsBatch(t *testing.T) {
	p := testParams()
	ct := NewCongestionToLeaf(2, 3, p)
	ct.Update(1, 0, 1, 0)
	ct.Update(1, 2, 7, 0)
	buf := make([]uint8, 3)
	got := ct.Metrics(1, 0, buf)
	want := []uint8{1, 0, 7}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Metrics = %v, want %v", got, want)
		}
	}
}

func TestCongestionFromLeafObserveAndFeedback(t *testing.T) {
	p := testParams()
	cf := NewCongestionFromLeaf(2, 4, p)
	cf.Observe(1, 2, 6, 0)
	tag, metric, ok := cf.PickFeedback(1, 0)
	if !ok || tag != 2 || metric != 6 {
		t.Fatalf("feedback = (%d, %d, %v), want (2, 6, true)", tag, metric, ok)
	}
}

func TestCongestionFromLeafNoFeedbackWhenEmpty(t *testing.T) {
	cf := NewCongestionFromLeaf(2, 4, testParams())
	if _, _, ok := cf.PickFeedback(0, 0); ok {
		t.Fatal("feedback available from a leaf never observed")
	}
}

// TestCongestionFromLeafFavoursChanged checks the §3.3 optimization: a
// changed metric is fed back before unchanged ones, regardless of
// round-robin position.
func TestCongestionFromLeafFavoursChanged(t *testing.T) {
	p := testParams()
	cf := NewCongestionFromLeaf(1, 4, p)
	for tag := uint8(0); tag < 4; tag++ {
		cf.Observe(0, tag, 1, 0)
	}
	// Drain all four as changed once.
	seen := map[uint8]bool{}
	for i := 0; i < 4; i++ {
		tag, _, ok := cf.PickFeedback(0, 0)
		if !ok {
			t.Fatal("feedback dried up")
		}
		seen[tag] = true
	}
	if len(seen) != 4 {
		t.Fatalf("first four feedbacks covered %d tags, want 4", len(seen))
	}
	// Now change only tag 3; it must be picked next even though the
	// round-robin cursor points elsewhere.
	cf.Observe(0, 3, 5, 0)
	tag, metric, ok := cf.PickFeedback(0, 0)
	if !ok || tag != 3 || metric != 5 {
		t.Fatalf("changed entry not favoured: got (%d, %d, %v)", tag, metric, ok)
	}
}

// TestCongestionFromLeafRoundRobinWhenUnchanged checks that with no changed
// entries, feedback still cycles through all touched tags so they keep
// refreshing at the source.
func TestCongestionFromLeafRoundRobinWhenUnchanged(t *testing.T) {
	p := testParams()
	cf := NewCongestionFromLeaf(1, 4, p)
	cf.Observe(0, 0, 1, 0)
	cf.Observe(0, 2, 2, 0)
	// Drain changed flags.
	cf.PickFeedback(0, 0)
	cf.PickFeedback(0, 0)
	// Subsequent picks alternate between tags 0 and 2.
	got := []uint8{}
	for i := 0; i < 4; i++ {
		tag, _, ok := cf.PickFeedback(0, 0)
		if !ok {
			t.Fatal("steady-state feedback stopped")
		}
		got = append(got, tag)
	}
	if got[0] == got[1] || got[2] == got[3] {
		t.Fatalf("round robin not alternating: %v", got)
	}
}

func TestCongestionFromLeafSameValueNotChanged(t *testing.T) {
	p := testParams()
	cf := NewCongestionFromLeaf(1, 2, p)
	cf.Observe(0, 0, 4, 0)
	cf.PickFeedback(0, 0) // clears changed
	cf.Observe(0, 0, 4, 0)
	cf.Observe(0, 1, 1, 0) // a genuinely new entry
	tag, _, _ := cf.PickFeedback(0, 0)
	if tag != 1 {
		t.Fatalf("re-observing an identical value beat a changed entry: picked %d", tag)
	}
}

func TestCongestionFromLeafIsolatesSourceLeaves(t *testing.T) {
	cf := NewCongestionFromLeaf(3, 4, testParams())
	cf.Observe(1, 0, 7, 0)
	if _, _, ok := cf.PickFeedback(2, 0); ok {
		t.Fatal("feedback for leaf 2 produced from leaf 1's observations")
	}
}

// TestCongestionToLeafFeedbackAge pins the decision plane's staleness
// source: age counts from the last Update (the piggybacked feedback), and
// an entry that never received feedback reports ok=false (cold).
func TestCongestionToLeafFeedbackAge(t *testing.T) {
	p := testParams()
	ct := NewCongestionToLeaf(2, 2, p)
	if _, ok := ct.FeedbackAge(0, 0, 5*sim.Millisecond); ok {
		t.Fatal("untouched entry reported a feedback age")
	}
	ct.Update(0, 1, 3, 2*sim.Millisecond)
	age, ok := ct.FeedbackAge(0, 1, 5*sim.Millisecond)
	if !ok || age != 3*sim.Millisecond {
		t.Fatalf("age = (%v, %v), want (3ms, true)", age, ok)
	}
	ct.Update(0, 1, 3, 6*sim.Millisecond) // refresh resets the clock
	if age, _ := ct.FeedbackAge(0, 1, 6*sim.Millisecond); age != 0 {
		t.Fatalf("refreshed age = %v, want 0", age)
	}
}

func TestMetricAgeZeroValueNeverDecaysUpward(t *testing.T) {
	var m metricAge
	m.set(0, 0)
	for _, at := range []sim.Time{0, 5 * sim.Millisecond, 50 * sim.Millisecond} {
		if got := m.get(at, 10*sim.Millisecond); got != 0 {
			t.Fatalf("zero metric aged to %d", got)
		}
	}
}
