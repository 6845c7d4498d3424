package core

import (
	"fmt"
	"math/bits"

	"conga/internal/sim"
)

// metricAge tracks a quantized congestion metric together with its last
// update time so stale values can decay (§3.3, "metric aging"). A metric
// untouched for AgeTimeout decays linearly to zero over a further
// AgeTimeout, which both prevents routing on stale state and guarantees
// that a path that looked congested is eventually probed again.
//
// It is one word — touched (bit 63), the value (bits 55–62) and the update
// time in nanoseconds (bits 0–54, 417 days of virtual time) — so a peer
// leaf's whole row of 8 uplinks is one cache line. The zero word is an
// untouched entry of value 0, which is what an absent row reads as.
type metricAge uint64

// zeroMetrics backs the zero row of every congestion table.
var zeroMetrics [maxLBTag + 1]metricAge

const (
	ageTimeBits = 55
	ageTimeMask = 1<<ageTimeBits - 1
	ageTouched  = 1 << 63
)

func (m *metricAge) set(v uint8, now sim.Time) {
	if uint64(now) > ageTimeMask {
		panic(fmt.Sprintf("core: metric timestamp %d ns outside the packed entry's 55 bits", int64(now)))
	}
	*m = metricAge(ageTouched | uint64(v)<<ageTimeBits | uint64(now))
}

func (m metricAge) touched() bool     { return m&ageTouched != 0 }
func (m metricAge) value() uint8      { return uint8(m >> ageTimeBits) }
func (m metricAge) updated() sim.Time { return sim.Time(m & ageTimeMask) }

func (m metricAge) get(now sim.Time, ageTimeout sim.Time) uint8 {
	v := m.value() // zero for an untouched entry
	if v == 0 {
		return 0
	}
	idle := now - m.updated()
	if idle <= ageTimeout {
		return v
	}
	// Linear decay from full value at ageTimeout to zero at 2·ageTimeout.
	excess := idle - ageTimeout
	if excess >= ageTimeout {
		return 0
	}
	remain := float64(ageTimeout-excess) / float64(ageTimeout)
	return uint8(float64(v) * remain)
}

// CongestionToLeaf is the source-side table (§3): for each destination leaf
// and each local uplink it stores the maximum congestion over the fabric
// path(s) that start at that uplink, as learned from feedback. The LB
// decision takes the max of this remote metric and the local uplink DRE.
type CongestionToLeaf struct {
	metrics    rows[metricAge] // one row per destination leaf, one entry per uplink
	n          int             // uplinks
	ageTimeout sim.Time
}

// NewCongestionToLeaf returns a table covering numLeaves destinations and
// numUplinks local uplinks. Remote metrics start at zero: an unknown path
// is assumed uncongested, which is what makes new paths get probed. A
// destination's row is allocated by its first Update.
func NewCongestionToLeaf(numLeaves, numUplinks int, p Params) *CongestionToLeaf {
	return &CongestionToLeaf{
		metrics:    newRows(numLeaves, numUplinks, zeroMetrics[:]),
		n:          numUplinks,
		ageTimeout: p.AgeTimeout,
	}
}

// row returns destLeaf's entries, one per uplink, for reading.
func (t *CongestionToLeaf) row(destLeaf int) []metricAge { return t.metrics.get(destLeaf) }

// Update records feedback: the path to destLeaf via uplink has congestion
// metric value.
func (t *CongestionToLeaf) Update(destLeaf, uplink int, value uint8, now sim.Time) {
	t.metrics.put(destLeaf)[uplink].set(value, now)
}

// Metrics fills dst with the aged metrics for every uplink toward destLeaf
// and returns it; dst must have length ≥ the uplink count.
func (t *CongestionToLeaf) Metrics(destLeaf int, now sim.Time, dst []uint8) []uint8 {
	row := t.row(destLeaf)
	for i, m := range row {
		dst[i] = m.get(now, t.ageTimeout)
	}
	return dst[:len(row)]
}

// FeedbackAge returns how long ago the entry for destLeaf via uplink last
// received piggybacked feedback (its per-entry update timestamp is written
// only by Update, i.e. the feedback path). ok is false when the entry has
// never been fed back — the decision plane reports such picks as "cold".
func (t *CongestionToLeaf) FeedbackAge(destLeaf, uplink int, now sim.Time) (age sim.Time, ok bool) {
	m := t.row(destLeaf)[uplink]
	if !m.touched() {
		return 0, false
	}
	return now - m.updated(), true
}

// MaxMetric returns the largest aged metric for the given uplink across all
// destination leaves — "how congested do remote paths through this uplink
// look right now". Telemetry samples it per uplink; it reads (and ages)
// metrics but never mutates the table. A destination never fed back reads
// 0, so only written rows are visited.
func (t *CongestionToLeaf) MaxMetric(uplink int, now sim.Time) uint8 {
	var max uint8
	t.metrics.each(func(row []metricAge) {
		if v := row[uplink].get(now, t.ageTimeout); v > max {
			max = v
		}
	})
	return max
}

// CongestionFromLeaf is the destination-side table (§3.3 step 3): per
// source leaf, per LBTag, the latest CE metric seen on arriving packets,
// waiting to be piggybacked back to that source. The table also tracks
// which entries changed since they were last fed back so feedback selection
// can favour fresh information.
type CongestionFromLeaf struct {
	metrics rows[metricAge] // one row per source leaf, one entry per LBTag
	peers   []peerState     // dense: 6 bytes per peer
	n       int             // LBTag values
	ageOut  sim.Time
}

// peerState is what feedback selection needs of a peer's row besides the
// picked entry: bit j of touched says LBTag j was ever observed, changed ⊆
// touched that its value moved since last fed back; next is the cursor.
type peerState struct {
	changed, touched uint16 // LBTags are 4 bits wide
	next             uint8
}

// NewCongestionFromLeaf returns a table covering numLeaves sources and
// numTags LBTag values. A source's row is allocated by its first Observe.
func NewCongestionFromLeaf(numLeaves, numTags int, p Params) *CongestionFromLeaf {
	if numTags > maxLBTag+1 {
		panic(fmt.Sprintf("core: %d LBTags exceed the header's %d", numTags, maxLBTag+1))
	}
	return &CongestionFromLeaf{
		metrics: newRows(numLeaves, numTags, zeroMetrics[:]),
		peers:   make([]peerState, numLeaves),
		n:       numTags,
		ageOut:  p.AgeTimeout,
	}
}

// Observe records the CE metric of a packet that arrived from srcLeaf with
// the given LBTag.
func (t *CongestionFromLeaf) Observe(srcLeaf int, lbTag uint8, ce uint8, now sim.Time) {
	m := &t.metrics.put(srcLeaf)[lbTag] // a tag past the row panics
	if !m.touched() || m.value() != ce {
		ps := &t.peers[srcLeaf]
		ps.changed |= 1 << lbTag
		ps.touched |= 1 << lbTag
	}
	m.set(ce, now)
}

// PickFeedback selects one (LBTag, metric) pair to piggyback on a packet
// going to dstLeaf (the leaf that originally sent us the observed traffic).
// Selection is round-robin over LBTags, favouring entries whose value has
// changed since they were last fed back (§3.3 step 4); with none changed —
// the steady state of a call made for every data packet — plain round-robin
// over touched entries keeps metrics refreshing (and re-arms aging). It
// returns ok=false when nothing has ever been observed from that leaf.
func (t *CongestionFromLeaf) PickFeedback(dstLeaf int, now sim.Time) (lbTag uint8, metric uint8, ok bool) {
	ps := &t.peers[dstLeaf]
	set := ps.changed
	if set == 0 {
		if set = ps.touched; set == 0 {
			return 0, 0, false
		}
	}
	// First member of set at or after the cursor, wrapping around.
	j := uint8(bits.TrailingZeros16(set))
	if at := set >> ps.next; at != 0 {
		j = ps.next + uint8(bits.TrailingZeros16(at))
	}
	ps.changed &^= 1 << j
	if ps.next = j + 1; int(ps.next) == t.n {
		ps.next = 0
	}
	return j, t.metrics.get(dstLeaf)[j].get(now, t.ageOut), true
}

// HasChanged reports whether any metric observed from srcLeaf has changed
// since it was last fed back — i.e. whether feedback toward that leaf is
// worth sending explicitly when no reverse traffic exists.
func (t *CongestionFromLeaf) HasChanged(srcLeaf int) bool {
	return t.peers[srcLeaf].changed != 0
}
