package telemetry

import (
	"fmt"
	"reflect"
	"testing"

	"conga/internal/sim"
)

// refSeries is the per-series sampling algorithm every series ran before
// the series of a ticker shared one clock: its own stride and skip, and a
// buffer of (time, value) points that halves when full.
type refSeries struct {
	pts    []Point
	stride int
	skip   int
}

func (s *refSeries) observe(capacity int, t sim.Time, v float64) {
	if s.skip > 0 {
		s.skip--
		return
	}
	if len(s.pts) == capacity {
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

func seriesPoints(s *Series) []Point {
	var pts []Point
	s.each(func(p Point) { pts = append(pts, p) })
	return pts
}

// FuzzSeriesGroupMatchesSeries holds a group of series on one clock against
// one reference series each, over tick counts that cross several halvings:
// every member must keep exactly the points its own per-series clock would
// have kept. Members whose bit in nilMask is set are nil, as a fabric leaf
// without a flowlet table leaves its slot, and take Puts that record
// nothing; a standalone series beside the group is observed on the ticks
// soloMask's bits pick (a staleness window with no decisions skips one),
// and must match its reference too.
func FuzzSeriesGroupMatchesSeries(f *testing.F) {
	f.Add(uint8(8), uint8(3), uint16(1000), uint8(0), uint64(0), uint64(1))
	f.Add(uint8(2), uint8(0), uint16(37), uint8(0), uint64(0xf0f0), uint64(7))
	f.Add(uint8(6), uint8(5), uint16(4000), uint8(0b10101), uint64(1<<63-1), uint64(3))
	f.Add(uint8(4), uint8(1), uint16(0), uint8(1), uint64(0), uint64(0))
	f.Fuzz(func(t *testing.T, capArg, size uint8, ticks uint16, nilMask uint8, soloMask, seed uint64) {
		r := New(Options{SeriesCap: 2 + int(capArg%31)})
		capacity := r.opts.SeriesCap
		g := r.NewSeriesGroup()
		members := make([]*Series, size%9)
		refs := make([]refSeries, len(members))
		for i := range members {
			refs[i].stride = 1
			if nilMask&(1<<i) == 0 {
				members[i] = g.NewSeries(fmt.Sprintf("m%d", i), "x")
			}
		}
		solo, soloRef := r.NewSeries("solo", "x"), refSeries{stride: 1}
		value := func(i, m int) float64 { return float64(uint32(seed*uint64(i+1)*0x9e3779b9) + uint32(m)) }
		for i := 0; i < int(ticks%5000); i++ {
			now := sim.Time(1000 + 20*i)
			if g.Sample(now) {
				for m, s := range members {
					s.Put(value(i, m))
				}
			}
			for m := range refs {
				refs[m].observe(capacity, now, value(i, m))
			}
			if soloMask>>(i%64)&1 == 1 {
				solo.Observe(now, value(i, -1))
				soloRef.observe(capacity, now, value(i, -1))
			}
		}
		for m, s := range members {
			if s == nil {
				continue
			}
			if got := seriesPoints(s); !reflect.DeepEqual(got, refs[m].pts) {
				t.Fatalf("member %d kept %v, want %v", m, got, refs[m].pts)
			}
		}
		if got := seriesPoints(solo); !reflect.DeepEqual(got, soloRef.pts) {
			t.Fatalf("standalone series kept %v, want %v", got, soloRef.pts)
		}
		if got := len(r.AllSeries()); got != len(members)-popcount(nilMask, len(members))+1 {
			t.Fatalf("registry holds %d series", got)
		}
		var nilGroup *SeriesGroup
		if nilGroup.Sample(1) || nilGroup.NewSeries("n", "x") != nil {
			t.Fatal("a nil group kept a sample or handed out a series")
		}
	})
}

func popcount(mask uint8, n int) int {
	c := 0
	for i := 0; i < n; i++ {
		c += int(mask >> i & 1)
	}
	return c
}

// TestSeriesGroupRefusesLateOrDuplicateMembers: a member joining after the
// group sampled would misalign with the time axis, and a name registered
// twice would take two values per sample.
func TestSeriesGroupRefusesLateOrDuplicateMembers(t *testing.T) {
	for name, fn := range map[string]func(){
		"late": func() {
			g := New(Options{}).NewSeriesGroup()
			g.Sample(1)
			g.NewSeries("a", "x")
		},
		"duplicate": func() {
			r := New(Options{})
			r.NewSeries("a", "x")
			r.NewSeriesGroup().NewSeries("a", "x")
		},
		"put twice": func() {
			g := New(Options{}).NewSeriesGroup()
			s := g.NewSeries("a", "x")
			g.Sample(1)
			s.Put(1)
			s.Put(2)
		},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			fn()
		})
	}
}
