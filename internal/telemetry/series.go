package telemetry

import (
	"conga/internal/plot"
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

// Name returns the probe name (e.g. "queue.l0->s0.0").
func (s *Series) Name() string { return s.name }

// Unit returns the value unit (e.g. "bytes").
func (s *Series) Unit() string { return s.unit }

// Stride returns how many observations each retained point represents.
func (s *Series) Stride() int {
	if s == nil {
		return 0
	}
	return s.stride
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

// Points returns the retained samples in time order. The slice aliases the
// buffer; callers must not modify it.
func (s *Series) Points() []Point {
	if s == nil {
		return nil
	}
	return s.pts
}

// Len returns the number of retained samples.
func (s *Series) Len() int {
	if s == nil {
		return 0
	}
	return len(s.pts)
}

// Last returns the most recent sample, or a zero Point when empty.
func (s *Series) Last() Point {
	if s == nil || len(s.pts) == 0 {
		return Point{}
	}
	return s.pts[len(s.pts)-1]
}

// Max returns the largest retained value (0 when empty); convenient for
// "peak queue depth" style summaries in examples.
func (s *Series) Max() float64 {
	if s == nil {
		return 0
	}
	m := 0.0
	for _, p := range s.pts {
		if p.V > m {
			m = p.V
		}
	}
	return m
}

// PlotSeries is a series or cdf file as one plot line: (time_ns, value) or
// (value, fraction) points under the file's probe name and unit.
func (f *SinkFile) PlotSeries() plot.Series {
	s := plot.Series{Name: f.Probe, Unit: f.Unit, Points: f.CDF}
	for _, p := range f.Points {
		s.Points = append(s.Points, [2]float64{float64(p.T), p.V})
	}
	return s
}
