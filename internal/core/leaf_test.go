package core

import (
	"runtime"
	"testing"

	"conga/internal/sim"
)

func TestDecidePicksMinOfMax(t *testing.T) {
	local := []uint8{3, 1, 6}
	remote := []uint8{2, 5, 0}
	// max per uplink: 3, 5, 6 → uplink 0 wins.
	if got := Decide(local, remote, nil, -1, nil); got != 0 {
		t.Fatalf("Decide = %d, want 0", got)
	}
}

func TestDecideRemoteDominates(t *testing.T) {
	local := []uint8{0, 0}
	remote := []uint8{7, 1}
	if got := Decide(local, remote, nil, -1, nil); got != 1 {
		t.Fatalf("Decide = %d, want 1 (remote congestion must matter)", got)
	}
}

func TestDecidePrefersStickyOnTie(t *testing.T) {
	local := []uint8{2, 2, 2}
	remote := []uint8{0, 0, 0}
	rng := sim.NewRand(1)
	for i := 0; i < 100; i++ {
		if got := Decide(local, remote, nil, 1, rng); got != 1 {
			t.Fatalf("tie did not stick to preferred uplink: got %d", got)
		}
	}
}

func TestDecideMovesOnlyForStrictlyBetter(t *testing.T) {
	// Preferred uplink has metric 3; another has 3 too. Must not move.
	local := []uint8{3, 3}
	remote := []uint8{0, 0}
	if got := Decide(local, remote, nil, 0, sim.NewRand(1)); got != 0 {
		t.Fatalf("moved on equal metric: got %d", got)
	}
	// Now uplink 1 is strictly better. Must move.
	local = []uint8{3, 2}
	if got := Decide(local, remote, nil, 0, sim.NewRand(1)); got != 1 {
		t.Fatalf("did not move to strictly better uplink: got %d", got)
	}
}

func TestDecideRandomTieBreakCoversAllMinima(t *testing.T) {
	local := []uint8{1, 5, 1, 1}
	remote := []uint8{0, 0, 0, 0}
	rng := sim.NewRand(7)
	seen := map[int]int{}
	for i := 0; i < 3000; i++ {
		seen[Decide(local, remote, nil, -1, rng)]++
	}
	if seen[1] != 0 {
		t.Fatal("picked a non-minimal uplink")
	}
	for _, u := range []int{0, 2, 3} {
		if seen[u] < 700 {
			t.Fatalf("uplink %d picked only %d/3000 times; tie-break biased: %v", u, seen[u], seen)
		}
	}
}

func TestDecideRespectsAllowed(t *testing.T) {
	local := []uint8{0, 7}
	remote := []uint8{0, 0}
	allowed := []bool{false, true}
	if got := Decide(local, remote, allowed, -1, sim.NewRand(1)); got != 1 {
		t.Fatalf("picked disallowed uplink: got %d", got)
	}
}

func TestDecideNoAllowedUplinks(t *testing.T) {
	if got := Decide([]uint8{1}, []uint8{1}, []bool{false}, -1, nil); got != -1 {
		t.Fatalf("Decide with no allowed uplinks = %d, want -1", got)
	}
}

func TestDecideDisallowedPreferredIgnored(t *testing.T) {
	local := []uint8{0, 0}
	remote := []uint8{0, 0}
	allowed := []bool{true, false}
	if got := Decide(local, remote, allowed, 1, sim.NewRand(1)); got != 0 {
		t.Fatalf("preferred-but-down uplink selected: got %d", got)
	}
}

func TestDecideMismatchedLengthsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched metric slices did not panic")
		}
	}()
	Decide([]uint8{1, 2}, []uint8{1}, nil, -1, nil)
}

func newTestLeaf(t *testing.T) *Leaf {
	t.Helper()
	p := testParams()
	return NewLeaf(0, 4, 4, p, sim.NewRand(99))
}

func TestLeafSelectUplinkCachesFlowlet(t *testing.T) {
	l := newTestLeaf(t)
	local := []uint8{0, 0, 0, 0}
	up1, isNew := l.SelectUplink(123, 1, local, nil, 0)
	if !isNew {
		t.Fatal("first packet did not start a flowlet")
	}
	// Make the chosen uplink look terrible; packets of the same flowlet
	// must still follow the cached decision.
	local[up1] = 7
	up2, isNew := l.SelectUplink(123, 1, local, nil, 100)
	if isNew || up2 != up1 {
		t.Fatalf("mid-flowlet packet rerouted: (%d, %v), want (%d, false)", up2, isNew, up1)
	}
}

func TestLeafSelectUplinkUsesFeedback(t *testing.T) {
	l := newTestLeaf(t)
	// Feedback says uplinks 0-2 are congested toward leaf 1.
	for up := 0; up < 3; up++ {
		l.ToLeaf.Update(1, up, 7, 0)
	}
	local := []uint8{0, 0, 0, 0}
	up, _ := l.SelectUplink(55, 1, local, nil, 0)
	if up != 3 {
		t.Fatalf("ignored remote congestion: picked %d, want 3", up)
	}
	// Toward leaf 2 there is no feedback, so any uplink may win — but the
	// decision must not be influenced by leaf 1's metrics.
	counts := map[int]int{}
	for i := uint64(0); i < 400; i++ {
		u, _ := l.SelectUplink(1000+i, 2, local, nil, 0)
		counts[u]++
	}
	if len(counts) < 4 {
		t.Fatalf("leaf-1 congestion leaked into leaf-2 decisions: %v", counts)
	}
}

func TestLeafOnFabricArrivalFeedsBothTables(t *testing.T) {
	l := newTestLeaf(t)
	h := Header{LBTag: 2, CE: 6, FBValid: true, FBLBTag: 1, FBMetric: 4}
	l.OnFabricArrival(3, h, 0)
	// CE stored in FromLeaf for later piggybacking toward leaf 3.
	tag, metric, ok := l.FromLeaf.PickFeedback(3, 0)
	if !ok || tag != 2 || metric != 6 {
		t.Fatalf("CE not recorded: (%d, %d, %v)", tag, metric, ok)
	}
	// Piggybacked feedback applied to ToLeaf for paths to leaf 3.
	if got := readMetric(l.ToLeaf, 3, 1, 0); got != 4 {
		t.Fatalf("feedback not applied: metric = %d, want 4", got)
	}
}

func TestLeafOnFabricArrivalIgnoresOutOfRangeFeedback(t *testing.T) {
	l := NewLeaf(0, 4, 2, testParams(), sim.NewRand(1)) // only 2 uplinks
	h := Header{LBTag: 0, CE: 0, FBValid: true, FBLBTag: 9, FBMetric: 7}
	l.OnFabricArrival(1, h, 0) // must not panic or corrupt state
}

func TestLeafPrepareHeaderPiggybacksFeedback(t *testing.T) {
	l := newTestLeaf(t)
	l.FromLeaf.Observe(2, 3, 5, 0)
	h := l.PrepareHeader(2, 1, 42, 0)
	if h.LBTag != 1 || h.VNI != 42 {
		t.Fatalf("header fields wrong: %+v", h)
	}
	if !h.FBValid || h.FBLBTag != 3 || h.FBMetric != 5 {
		t.Fatalf("feedback not piggybacked: %+v", h)
	}
	if h.CE != 0 {
		t.Fatalf("fresh packet CE = %d, want 0", h.CE)
	}
}

func TestLeafPrepareHeaderNoFeedbackAvailable(t *testing.T) {
	l := newTestLeaf(t)
	h := l.PrepareHeader(1, 0, 1, 0)
	if h.FBValid {
		t.Fatal("FBValid set with nothing observed")
	}
}

func TestLeafFeedbackLoopEndToEnd(t *testing.T) {
	// Two leaves exchanging packets: congestion observed at B must reach
	// A's Congestion-To-Leaf table via piggybacking.
	p := testParams()
	a := NewLeaf(0, 2, 2, p, sim.NewRand(1))
	b := NewLeaf(1, 2, 2, p, sim.NewRand(2))

	// A sends to B on uplink 1; fabric marks CE = 6 en route.
	ha := a.PrepareHeader(1, 1, 0, 0)
	ha.CE = 6
	b.OnFabricArrival(0, ha, 10)

	// B sends any packet back to A; it carries the feedback.
	hb := b.PrepareHeader(0, 0, 0, 20)
	if !hb.FBValid || hb.FBLBTag != 1 || hb.FBMetric != 6 {
		t.Fatalf("reverse packet lacks feedback: %+v", hb)
	}
	a.OnFabricArrival(1, hb, 30)
	if got := readMetric(a.ToLeaf, 1, 1, 30); got != 6 {
		t.Fatalf("A's remote metric = %d, want 6", got)
	}

	// A's next flowlet decision toward B must avoid uplink 1.
	up, _ := a.SelectUplink(777, 1, []uint8{0, 0}, nil, 40)
	if up != 0 {
		t.Fatalf("A kept sending into known congestion: uplink %d", up)
	}
}

func TestLeafMovesCounter(t *testing.T) {
	l := newTestLeaf(t)
	local := []uint8{0, 7, 7, 7}
	l.SelectUplink(1, 1, local, nil, 0) // first decision: uplink 0
	if l.Decisions != 1 || l.Moves != 0 {
		t.Fatalf("counters after first decision: %d/%d", l.Decisions, l.Moves)
	}
	// Expire the flowlet and make uplink 0 congested; flow must move.
	p := l.Params
	for i := 0; i < 3; i++ {
		l.SweepFlowlets()
	}
	local = []uint8{7, 0, 7, 7}
	up, isNew := l.SelectUplink(1, 1, local, nil, 3*p.Tfl)
	if !isNew || up != 1 {
		t.Fatalf("flow did not move: (%d, %v)", up, isNew)
	}
	if l.Moves != 1 {
		t.Fatalf("Moves = %d, want 1", l.Moves)
	}
}

func TestLeafSelectUplinkAvoidsDownCachedPort(t *testing.T) {
	l := newTestLeaf(t)
	local := []uint8{0, 0, 0, 0}
	up, _ := l.SelectUplink(5, 1, local, nil, 0)
	// The cached uplink goes down; the very next packet must re-decide.
	allowed := []bool{true, true, true, true}
	allowed[up] = false
	up2, isNew := l.SelectUplink(5, 1, local, allowed, 1)
	if !isNew || up2 == up {
		t.Fatalf("packet followed a dead uplink: (%d, %v)", up2, isNew)
	}
}

func TestNewLeafValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewLeaf with more uplinks than MaxUplinks did not panic")
		}
	}()
	p := testParams()
	p.MaxUplinks = 4
	NewLeaf(0, 2, 5, p, sim.NewRand(1))
}

// written counts the rows written so far.
func (s *rows[T]) written() int {
	n := 0
	s.each(func([]T) { n++ })
	return n
}

// TestLeafStateFollowsTraffic pins what the sparse stores buy (DESIGN.md
// §3.10): a fresh 256-leaf leaf allocates its row indexes and the flowlet
// table's first slots and little else, reading any of its tables allocates
// nothing and writes no entry or row, and the flowlet slots and peer rows it
// holds follow exactly the entries and peers traffic has written.
func TestLeafStateFollowsTraffic(t *testing.T) {
	p := DefaultParams()
	const builds = 16
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < builds; i++ {
		NewLeaf(0, 256, 8, p, nil)
	}
	runtime.ReadMemStats(&after)
	if b := (after.TotalAlloc - before.TotalAlloc) / builds; b > 8<<10 {
		t.Errorf("a fresh 256-leaf NewLeaf allocates %d bytes, want ≤ 8 KB", b)
	}

	l := NewLeaf(0, 256, 8, p, sim.NewRand(1))
	buf := make([]uint8, 8)
	reads := []struct {
		name string
		read func()
	}{
		{"Flowlets.Lookup", func() { l.Flowlets.Lookup(12345, 0) }},
		{"Flowlets.valid", func() { l.Flowlets.valid(12345) }},
		{"Flowlets.Live", func() { l.Flowlets.Live() }},
		{"ToLeaf.Metrics", func() { l.ToLeaf.Metrics(200, 0, buf) }},
		{"ToLeaf.FeedbackAge", func() { l.ToLeaf.FeedbackAge(200, 3, 0) }},
		{"ToLeaf.MaxMetric", func() { l.ToLeaf.MaxMetric(3, 0) }},
		{"FromLeaf.PickFeedback", func() { l.FromLeaf.PickFeedback(200, 0) }},
		{"PrepareHeader", func() { l.PrepareHeader(200, 3, 1, 0) }},
	}
	for _, r := range reads {
		if a := testing.AllocsPerRun(100, r.read); a != 0 {
			t.Errorf("%s on a fresh leaf: %v allocations, want 0", r.name, a)
		}
	}
	if n, to, from := l.Flowlets.used, l.ToLeaf.metrics.written(), l.FromLeaf.metrics.written(); n+to+from != 0 {
		t.Fatalf("reads installed %d flowlet entries, wrote %d To-rows, %d From-rows", n, to, from)
	}

	rng := sim.NewRand(3)
	entries, peers := map[int]bool{}, map[int]bool{}
	for k := 0; k < 400; k++ {
		h := rng.Uint64()
		l.Flowlets.Install(h, k%8, 0)
		entries[l.Flowlets.index(h)] = true
		if n, slots := l.Flowlets.used, len(l.Flowlets.slots); n != len(entries) || slots != slotsFor(n) {
			t.Fatalf("after %d installs: %d entries in %d slots, want %d in %d", k+1, n, slots, len(entries), slotsFor(len(entries)))
		}
		if k%10 == 0 {
			src := rng.Intn(256)
			l.OnFabricArrival(src, Header{LBTag: 2, CE: 1, FBValid: true, FBLBTag: 5, FBMetric: 3}, 0)
			peers[src] = true
		}
	}
	if to, from := l.ToLeaf.metrics.written(), l.FromLeaf.metrics.written(); to != len(peers) || from != len(peers) {
		t.Fatalf("%d To-rows and %d From-rows for %d peers heard from", to, from, len(peers))
	}
}
