package core

import (
	"fmt"
	"testing"
	"unsafe"

	"conga/internal/sim"
)

// The reference tables below are the slice-of-slices implementation this
// package shipped through PR 13 — a three-field entry, a row slice per peer,
// a bool per changed flag, a counter and a cursor per peer — kept as the
// oracle the packed rows of tables.go have to match call for call.

type refMetricAge struct {
	value   uint8
	updated sim.Time
	touched bool
}

func (m *refMetricAge) set(v uint8, now sim.Time) {
	m.value = v
	m.updated = now
	m.touched = true
}

func (m *refMetricAge) get(now sim.Time, ageTimeout sim.Time) uint8 {
	if !m.touched || m.value == 0 {
		return 0
	}
	idle := now - m.updated
	if idle <= ageTimeout {
		return m.value
	}
	excess := idle - ageTimeout
	if excess >= ageTimeout {
		return 0
	}
	remain := float64(ageTimeout-excess) / float64(ageTimeout)
	return uint8(float64(m.value) * remain)
}

type refToLeaf struct {
	metrics    [][]refMetricAge // [destLeaf][uplink]
	ageTimeout sim.Time
}

func newRefToLeaf(numLeaves, numUplinks int, p Params) *refToLeaf {
	t := &refToLeaf{metrics: make([][]refMetricAge, numLeaves), ageTimeout: p.AgeTimeout}
	for i := range t.metrics {
		t.metrics[i] = make([]refMetricAge, numUplinks)
	}
	return t
}

func (t *refToLeaf) Update(destLeaf, uplink int, value uint8, now sim.Time) {
	t.metrics[destLeaf][uplink].set(value, now)
}

func (t *refToLeaf) Metric(destLeaf, uplink int, now sim.Time) uint8 {
	return t.metrics[destLeaf][uplink].get(now, t.ageTimeout)
}

func (t *refToLeaf) Metrics(destLeaf int, now sim.Time, dst []uint8) []uint8 {
	row := t.metrics[destLeaf]
	for i := range row {
		dst[i] = row[i].get(now, t.ageTimeout)
	}
	return dst[:len(row)]
}

func (t *refToLeaf) FeedbackAge(destLeaf, uplink int, now sim.Time) (sim.Time, bool) {
	m := &t.metrics[destLeaf][uplink]
	if !m.touched {
		return 0, false
	}
	return now - m.updated, true
}

func (t *refToLeaf) MaxMetric(uplink int, now sim.Time) uint8 {
	var max uint8
	for i := range t.metrics {
		if v := t.metrics[i][uplink].get(now, t.ageTimeout); v > max {
			max = v
		}
	}
	return max
}

type refFromLeaf struct {
	metrics [][]refMetricAge // [srcLeaf][lbTag]
	changed [][]bool
	nChg    []int
	rr      []int
	ageOut  sim.Time
}

func newRefFromLeaf(numLeaves, numTags int, p Params) *refFromLeaf {
	t := &refFromLeaf{
		metrics: make([][]refMetricAge, numLeaves),
		changed: make([][]bool, numLeaves),
		nChg:    make([]int, numLeaves),
		rr:      make([]int, numLeaves),
		ageOut:  p.AgeTimeout,
	}
	for i := range t.metrics {
		t.metrics[i] = make([]refMetricAge, numTags)
		t.changed[i] = make([]bool, numTags)
	}
	return t
}

func (t *refFromLeaf) Observe(srcLeaf int, lbTag uint8, ce uint8, now sim.Time) {
	m := &t.metrics[srcLeaf][lbTag]
	if (!m.touched || m.value != ce) && !t.changed[srcLeaf][lbTag] {
		t.changed[srcLeaf][lbTag] = true
		t.nChg[srcLeaf]++
	}
	m.set(ce, now)
}

func (t *refFromLeaf) PickFeedback(dstLeaf int, now sim.Time) (uint8, uint8, bool) {
	row := t.metrics[dstLeaf]
	n := len(row)
	start := t.rr[dstLeaf]
	if t.nChg[dstLeaf] > 0 {
		ch := t.changed[dstLeaf]
		for i, j := 0, start; i < n; i++ {
			if row[j].touched && ch[j] {
				return t.emit(dstLeaf, j, now)
			}
			if j++; j == n {
				j = 0
			}
		}
	}
	for i, j := 0, start; i < n; i++ {
		if row[j].touched {
			return t.emit(dstLeaf, j, now)
		}
		if j++; j == n {
			j = 0
		}
	}
	return 0, 0, false
}

func (t *refFromLeaf) emit(leaf, j int, now sim.Time) (uint8, uint8, bool) {
	t.rr[leaf] = (j + 1) % len(t.metrics[leaf])
	if t.changed[leaf][j] {
		t.changed[leaf][j] = false
		t.nChg[leaf]--
	}
	return uint8(j), t.metrics[leaf][j].get(now, t.ageOut), true
}

// TestTablesMatchReferenceModel drives the packed tables and the reference
// with the same seeded random call streams and requires every return value
// equal. The clock advances in steps that leave an entry fresh, partway
// through its decay, or past it, and each run only ever observes a sparse
// subset of its tags, so the round-robin cursor keeps crossing untouched
// slots that sit between touched ones. On 256 leaves every op is followed by
// the reads of a peer no op has written, which must leave its rows absent.
func TestTablesMatchReferenceModel(t *testing.T) {
	p := testParams()
	steps := []sim.Time{0, 1, sim.Microsecond, p.AgeTimeout / 3, p.AgeTimeout, p.AgeTimeout + 1,
		p.AgeTimeout * 3 / 2, 2*p.AgeTimeout - 1, 2 * p.AgeTimeout, 5 * p.AgeTimeout}
	for _, tags := range []int{1, 4, 8, 16} {
		for _, leaves := range []int{2, 256} {
			for seed := uint64(1); seed <= 8; seed++ {
				t.Run(fmt.Sprintf("tags%d/leaves%d/seed%d", tags, leaves, seed), func(t *testing.T) {
					rng := sim.NewRand(seed*1000 + uint64(tags*leaves))
					to, refTo := NewCongestionToLeaf(leaves, tags, p), newRefToLeaf(leaves, tags, p)
					from, refFrom := NewCongestionFromLeaf(leaves, tags, p), newRefFromLeaf(leaves, tags, p)
					if to.n != tags {
						t.Fatalf("table covers %d uplinks, want %d", to.n, tags)
					}
					// Traffic comes from a few peers and rides a sparse set
					// of tags, as in a fabric with fewer uplinks than LBTags.
					peer := func() int {
						if rng.Intn(4) > 0 {
							return rng.Intn(min(leaves, 3))
						}
						return rng.Intn(leaves)
					}
					live := uint16(rng.Uint64()) | 1<<uint(rng.Intn(tags))
					tag := func() int {
						for {
							if j := rng.Intn(tags); live>>uint(j)&1 != 0 || rng.Intn(16) == 0 {
								return j
							}
						}
					}
					buf, refBuf := make([]uint8, tags), make([]uint8, tags)
					toRows, fromRows := map[int]bool{}, map[int]bool{}
					now := sim.Time(0)
					for i := 0; i < 4000; i++ {
						if c, j := rng.Intn(leaves), rng.Intn(tags); leaves > 2 && !toRows[c] && !fromRows[c] {
							g, w := to.Metrics(c, now, buf), refTo.Metrics(c, now, refBuf)
							ga, gok := to.FeedbackAge(c, j, now)
							wa, wok := refTo.FeedbackAge(c, j, now)
							gt, gm, gfb := from.PickFeedback(c, now)
							wt, wm, wfb := refFrom.PickFeedback(c, now)
							if string(g) != string(w) || ga != wa || gok != wok || gt != wt || gm != wm || gfb != wfb {
								t.Fatalf("op %d: unwritten peer %d reads Metrics %v, FeedbackAge (%v, %v), PickFeedback (%d, %d, %v); reference %v, (%v, %v), (%d, %d, %v)",
									i, c, g, ga, gok, gt, gm, gfb, w, wa, wok, wt, wm, wfb)
							}
						}
						if rng.Intn(3) == 0 {
							now += steps[rng.Intn(len(steps))]
						}
						l, j, v := peer(), tag(), uint8(rng.Intn(8))
						switch op := rng.Intn(10); op {
						case 0, 1:
							from.Observe(l, uint8(j), v, now)
							refFrom.Observe(l, uint8(j), v, now)
							fromRows[l] = true
						case 2, 3, 4, 5:
							gt, gm, gok := from.PickFeedback(l, now)
							wt, wm, wok := refFrom.PickFeedback(l, now)
							if gt != wt || gm != wm || gok != wok {
								t.Fatalf("op %d: PickFeedback(%d, %v) = (%d, %d, %v), reference (%d, %d, %v)",
									i, l, now, gt, gm, gok, wt, wm, wok)
							}
						case 6:
							to.Update(l, j, v, now)
							refTo.Update(l, j, v, now)
							toRows[l] = true
						case 7:
							if g, w := readMetric(to, l, j, now), refTo.Metric(l, j, now); g != w {
								t.Fatalf("op %d: Metric(%d, %d, %v) = %d, reference %d", i, l, j, now, g, w)
							}
							ga, gok := to.FeedbackAge(l, j, now)
							wa, wok := refTo.FeedbackAge(l, j, now)
							if ga != wa || gok != wok {
								t.Fatalf("op %d: FeedbackAge(%d, %d, %v) = (%v, %v), reference (%v, %v)",
									i, l, j, now, ga, gok, wa, wok)
							}
						case 8:
							g, w := to.Metrics(l, now, buf), refTo.Metrics(l, now, refBuf)
							if string(g) != string(w) {
								t.Fatalf("op %d: Metrics(%d, %v) = %v, reference %v", i, l, now, g, w)
							}
						case 9:
							if g, w := to.MaxMetric(j, now), refTo.MaxMetric(j, now); g != w {
								t.Fatalf("op %d: MaxMetric(%d, %v) = %d, reference %d", i, j, now, g, w)
							}
						}
						if to.metrics.written() != len(toRows) || from.metrics.written() != len(fromRows) {
							t.Fatalf("op %d: %d To-rows, %d From-rows for %d and %d peers written", i,
								to.metrics.written(), from.metrics.written(), len(toRows), len(fromRows))
						}
					}
				})
			}
		}
	}
}

// TestPeerRowLayout pins the table layout of DESIGN.md §3.10: an entry is
// one word, and at the scale shape — 256 leaves, 8 uplinks, 16 LBTags — the
// row store hands out a To-row of exactly one cache line and a From-row of
// two, each starting on a line boundary, while a peer never written reads
// the shared zero row. (The alignment is the Go allocator's for blocks of
// these size classes, not a language guarantee.)
func TestPeerRowLayout(t *testing.T) {
	if s := unsafe.Sizeof(metricAge(0)); s != 8 {
		t.Fatalf("metricAge is %d bytes, want 8", s)
	}
	if s := unsafe.Sizeof(peerState{}); s > 8 {
		t.Fatalf("peerState is %d bytes, want ≤ 8", s)
	}
	p := testParams()
	addr := func(m *metricAge) uintptr { return uintptr(unsafe.Pointer(m)) }
	to, from := NewCongestionToLeaf(256, 8, p), NewCongestionFromLeaf(256, 16, p)
	for peer := 0; peer < 256; peer += 37 {
		to.Update(peer, 7, 1, 0)
		from.Observe(peer, 15, 1, 0)
		for _, r := range []struct {
			name  string
			row   []metricAge
			bytes uintptr
		}{{"To", to.row(peer), 64}, {"From", from.metrics.get(peer), 128}} {
			if a, n := addr(&r.row[0]), uintptr(len(r.row))*8; n != r.bytes || a%64 != 0 {
				t.Errorf("peer %d's %s-row is %d bytes at %#x, want %d on a line boundary", peer, r.name, n, a, r.bytes)
			}
		}
	}
	if z := &zeroMetrics[0]; &to.row(1)[0] != z || &from.metrics.get(1)[0] != z {
		t.Error("an unwritten peer's rows are not the shared zero row")
	}
}

// FuzzMetricAgePacking compares the packed entry with the three-field one
// it replaced: any value set at any timestamp the 55 bits hold reads back
// the same at any later time, and a timestamp they cannot hold panics.
func FuzzMetricAgePacking(f *testing.F) {
	age := int64(DefaultParams().AgeTimeout)
	for _, v := range []uint8{0, 1, 7, 255} {
		for _, at := range []int64{0, 12345, ageTimeMask - 1, ageTimeMask} {
			for _, idle := range []int64{0, age - 1, age, age + 1, age + age/2, 2*age - 1, 2 * age, 2*age + 1} {
				f.Add(v, at, idle, age)
			}
		}
	}
	f.Add(uint8(3), int64(ageTimeMask+1), int64(0), age)
	f.Add(uint8(3), int64(-1), int64(0), age)
	f.Fuzz(func(t *testing.T, v uint8, at, idle, timeout int64) {
		if timeout <= 0 || idle < 0 || idle > 1<<60 {
			t.Skip()
		}
		var m metricAge
		if at < 0 || at > ageTimeMask {
			defer func() {
				if recover() == nil {
					t.Fatalf("set at %d ns did not panic", at)
				}
			}()
			m.set(v, sim.Time(at))
			return
		}
		var ref refMetricAge
		if m.touched() || m.value() != 0 || m.get(sim.Time(at), sim.Time(timeout)) != 0 {
			t.Fatal("zero entry is not untouched and zero")
		}
		m.set(v, sim.Time(at))
		ref.set(v, sim.Time(at))
		if !m.touched() || m.value() != v || m.updated() != sim.Time(at) {
			t.Fatalf("set(%d, %d) unpacks to (%v, %d, %d)", v, at, m.touched(), m.value(), m.updated())
		}
		now := sim.Time(at + idle)
		if g, w := m.get(now, sim.Time(timeout)), ref.get(now, sim.Time(timeout)); g != w {
			t.Fatalf("set(%d, %d) read at +%d with timeout %d: packed %d, reference %d", v, at, idle, timeout, g, w)
		}
	})
}
