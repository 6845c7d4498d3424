package telemetry

import (
	"conga/internal/sim"
)

// Point is one series sample.
type Point struct {
	T sim.Time
	V float64
}

// Series is a fixed-capacity time-series buffer that degrades resolution
// instead of growing: when full it discards every other retained sample and
// doubles its sampling stride, so memory is bounded at cap points while the
// buffer always spans the whole run at uniform (halved) resolution. The
// capacity is forced even so downsampling keeps retained samples aligned to
// the stride grid.
//
// Observe is O(1) amortized and allocation-free after construction; the
// probe callbacks on the engine tickers call it directly. A nil *Series is
// valid and records nothing, so wiring sites need no enable checks beyond
// the nil test.
type Series struct {
	name, unit string
	pts        []Point
	stride     int // keep 1 of every stride observations
	skip       int // observations dropped since the last kept one
}

func newSeries(name, unit string, capacity int) *Series {
	return &Series{name: name, unit: unit, pts: make([]Point, 0, capacity), stride: 1}
}

// Observe records v at time t, subject to the current stride. Safe on a nil
// receiver.
func (s *Series) Observe(t sim.Time, v float64) {
	if s == nil {
		return
	}
	if s.skip > 0 {
		s.skip--
		return
	}
	if len(s.pts) == cap(s.pts) {
		// Halve resolution: keep samples at even indices. Capacity is
		// even, so after compaction the next retained observation is
		// exactly stride*2 away from the last kept one — the grid stays
		// uniform.
		half := len(s.pts) / 2
		for i := 0; i < half; i++ {
			s.pts[i] = s.pts[2*i]
		}
		s.pts = s.pts[:half]
		s.stride *= 2
	}
	s.pts = append(s.pts, Point{T: t, V: v})
	s.skip = s.stride - 1
}
