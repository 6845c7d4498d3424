package telemetry

import (
	"fmt"

	"conga/internal/sim"
)

// Point is one series sample.
type Point struct {
	T sim.Time
	V float64
}

// SeriesGroup is the sampling clock a group of series shares: the series of
// one ticker start on the same tick and see every tick, so one stride, one
// skip count and one kept time axis serve them all. The clock is a
// fixed-capacity buffer that degrades resolution instead of growing: when its
// time axis is full it discards every other retained sample — of the axis
// and of every member's values — and doubles its stride, so memory is bounded
// at cap samples per series while the buffers always span the whole run at
// uniform (halved) resolution. The capacity is forced even so downsampling
// keeps retained samples aligned to the stride grid.
//
// Sample is O(1) on a skipped tick, so a ticker asks the clock before it
// computes any value, and each member stores only its float64 value on a
// kept one. A nil *SeriesGroup is valid and keeps nothing.
type SeriesGroup struct {
	reg     *Registry
	times   []sim.Time
	stride  int // keep 1 of every stride ticks
	skip    int // ticks dropped since the last kept one
	members []*Series
}

// Series is one probe's values on its group's time axis. A standalone
// series (Registry.NewSeries) is a group of one, driven through Observe.
// A nil *Series is valid and records nothing, so wiring sites need no
// enable checks beyond the nil test.
type Series struct {
	name, unit string
	clock      *SeriesGroup
	vals       []float64
}

// NewSeriesGroup returns a sampling clock for series registered through
// its NewSeries, or nil on a nil registry.
func (r *Registry) NewSeriesGroup() *SeriesGroup {
	if r == nil {
		return nil
	}
	return &SeriesGroup{reg: r, times: make([]sim.Time, 0, r.opts.SeriesCap), stride: 1}
}

// NewSeries registers a series on the group's clock, or returns nil on a
// nil group. The group must not have sampled yet, and the name must be new
// to the registry.
func (g *SeriesGroup) NewSeries(name, unit string) *Series {
	if g == nil {
		return nil
	}
	if len(g.times) > 0 {
		panic(fmt.Sprintf("telemetry: series %q joins a group that has already sampled", name))
	}
	if _, ok := g.reg.byName[name]; ok {
		panic(fmt.Sprintf("telemetry: series %q registered twice", name))
	}
	return g.add(name, unit)
}

func (g *SeriesGroup) add(name, unit string) *Series {
	s := &Series{name: name, unit: unit, clock: g, vals: make([]float64, 0, cap(g.times))}
	g.members = append(g.members, s)
	g.reg.byName[name] = s
	g.reg.series = append(g.reg.series, s)
	return s
}

// Sample reports whether the group keeps a sample at t. When it does, each
// member must Put exactly one value before the next Sample. Safe on a nil
// receiver.
func (g *SeriesGroup) Sample(t sim.Time) bool {
	if g == nil {
		return false
	}
	if g.skip > 0 {
		g.skip--
		return false
	}
	if len(g.times) == cap(g.times) {
		// Halve resolution: keep samples at even indices. Capacity is
		// even, so after compaction the next retained sample is exactly
		// stride*2 away from the last kept one — the grid stays uniform.
		g.times = halve(g.times)
		for _, s := range g.members {
			s.vals = halve(s.vals)
		}
		g.stride *= 2
	}
	g.times = append(g.times, t)
	g.skip = g.stride - 1
	return true
}

func halve[T any](x []T) []T {
	half := len(x) / 2
	for i := 0; i < half; i++ {
		x[i] = x[2*i]
	}
	return x[:half]
}

// Put stores v as the series' value at the sample its group's Sample just
// kept. Safe on a nil receiver.
func (s *Series) Put(v float64) {
	if s == nil {
		return
	}
	if len(s.vals) == len(s.clock.times) {
		panic(fmt.Sprintf("telemetry: series %q put twice in one sample", s.name))
	}
	s.vals = append(s.vals, v)
}

// Observe records v at time t, subject to the series' own clock: it is for
// a series Registry.NewSeries made. Safe on a nil receiver.
func (s *Series) Observe(t sim.Time, v float64) {
	if s != nil && s.clock.Sample(t) {
		s.vals = append(s.vals, v)
	}
}

// each calls fn with the series' points in time order.
func (s *Series) each(fn func(Point)) {
	for i, v := range s.vals {
		fn(Point{T: s.clock.times[i], V: v})
	}
}
