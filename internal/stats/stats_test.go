package stats

import (
	"math"
	"testing"
	"testing/quick"

	"conga/internal/core"
	"conga/internal/fabric"
	"conga/internal/sim"
)

func TestSampleEmptyIsSafe(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.Quantile(0.5) != 0 || s.Max() != 0 || s.Min() != 0 || s.StdDev() != 0 {
		t.Fatal("empty sample returned non-zero statistics")
	}
	if s.CDF() != nil {
		t.Fatal("empty sample produced a CDF")
	}
}

func TestSampleMeanQuantile(t *testing.T) {
	var s Sample
	for _, v := range []float64{5, 1, 3, 2, 4} {
		s.Add(v)
	}
	if s.Mean() != 3 {
		t.Fatalf("mean %v, want 3", s.Mean())
	}
	if s.Min() != 1 || s.Max() != 5 {
		t.Fatalf("min/max %v/%v", s.Min(), s.Max())
	}
	if q := s.Quantile(0.5); q != 3 {
		t.Fatalf("median %v, want 3", q)
	}
	if q := s.Quantile(1); q != 5 {
		t.Fatalf("q1.0 %v, want 5", q)
	}
	if q := s.Quantile(0); q != 1 {
		t.Fatalf("q0 %v, want 1", q)
	}
}

func TestSampleQuantileMonotoneProperty(t *testing.T) {
	err := quick.Check(func(raw []float64) bool {
		var s Sample
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				s.Add(v)
			}
		}
		if s.N() == 0 {
			return true
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := s.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestSampleStdDev(t *testing.T) {
	var s Sample
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if math.Abs(s.StdDev()-2) > 1e-12 {
		t.Fatalf("stddev %v, want 2", s.StdDev())
	}
}

func TestSampleCDF(t *testing.T) {
	var s Sample
	for _, v := range []float64{1, 2, 2, 3} {
		s.Add(v)
	}
	cdf := s.CDF()
	want := [][2]float64{{1, 0.25}, {2, 0.75}, {3, 1.0}}
	if len(cdf) != len(want) {
		t.Fatalf("CDF %v, want %v", cdf, want)
	}
	for i := range want {
		if cdf[i] != want[i] {
			t.Fatalf("CDF %v, want %v", cdf, want)
		}
	}
}

func TestSampleAddAfterQuantile(t *testing.T) {
	var s Sample
	s.Add(10)
	_ = s.Quantile(0.5)
	s.Add(1)
	if s.Min() != 1 {
		t.Fatal("Add after Quantile lost sortedness invalidation")
	}
}

func TestFCTRecorderBuckets(t *testing.T) {
	var r FCTRecorder
	r.Record(50<<10, 2*sim.Millisecond, sim.Millisecond)      // small
	r.Record(20<<20, 100*sim.Millisecond, 25*sim.Millisecond) // large
	r.Record(1<<20, 10*sim.Millisecond, 5*sim.Millisecond)    // mid: neither bucket
	if r.Flows != 3 || r.Overall.N() != 3 {
		t.Fatalf("flows %d / overall %d", r.Flows, r.Overall.N())
	}
	if r.Small.N() != 1 || r.Large.N() != 1 {
		t.Fatalf("bucket counts small=%d large=%d", r.Small.N(), r.Large.N())
	}
	if got := r.SmallNorm.Mean(); got != 2 {
		t.Fatalf("small norm %v, want 2", got)
	}
	if got := r.LargeNorm.Mean(); got != 4 {
		t.Fatalf("large norm %v, want 4", got)
	}
}

func TestFCTRecorderZeroOptimalSkipsNorm(t *testing.T) {
	var r FCTRecorder
	r.Record(1000, sim.Millisecond, 0)
	if r.OverallNorm.N() != 0 {
		t.Fatal("normalized series recorded without an optimal FCT")
	}
	if r.Overall.N() != 1 {
		t.Fatal("raw series missing")
	}
}

func buildNet(t testing.TB) (*sim.Engine, *fabric.Network) {
	t.Helper()
	eng := sim.New()
	p := core.DefaultParams()
	p.FlowletTableSize = 1024
	return eng, fabric.MustNetwork(eng, fabric.Config{
		NumLeaves: 2, NumSpines: 2, HostsPerLeaf: 2, LinksPerSpine: 1,
		AccessRateBps: 1e9, FabricRateBps: 1e9,
		Scheme: fabric.SchemeSpray, Params: p, Seed: 1,
	})
}

func TestImbalanceSamplerBalancedTraffic(t *testing.T) {
	eng, n := buildNet(t)
	up := n.Leaves[0].Uplinks()
	s := NewImbalanceSampler(up, sim.Millisecond)
	s.Start(eng)
	// Spray scheme: packets alternate uplinks → near-zero imbalance.
	sink := nullSink{}
	n.Host(2).Bind(700, sink)
	var seq int64
	sim.NewTicker(eng, 10*sim.Microsecond, func(now sim.Time) {
		p := &fabric.Packet{FlowID: 1, DstHost: 2, DstPort: 700, Seq: seq, Payload: 1000}
		seq += 1000
		n.Host(0).Send(p, now)
	})
	eng.Run(20 * sim.Millisecond)
	if s.Values.N() < 10 {
		t.Fatalf("only %d imbalance samples", s.Values.N())
	}
	if m := s.Values.Mean(); m > 0.1 {
		t.Fatalf("sprayed traffic imbalance %v, want ≈ 0", m)
	}
}

func TestImbalanceSamplerSkewedTraffic(t *testing.T) {
	eng, n := buildNet(t)
	up := n.Leaves[0].Uplinks()
	// Force all traffic on one uplink by failing the other.
	n.FailLink(0, 1, 0)
	s := NewImbalanceSampler(up, sim.Millisecond)
	s.Start(eng)
	sink := nullSink{}
	n.Host(2).Bind(700, sink)
	var seq int64
	sim.NewTicker(eng, 10*sim.Microsecond, func(now sim.Time) {
		p := &fabric.Packet{FlowID: 1, DstHost: 2, DstPort: 700, Seq: seq, Payload: 1000}
		seq += 1000
		n.Host(0).Send(p, now)
	})
	eng.Run(20 * sim.Millisecond)
	// One link carries everything: imbalance = (max−0)/avg = 2.
	if m := s.Values.Mean(); math.Abs(m-2) > 0.05 {
		t.Fatalf("fully skewed imbalance %v, want 2", m)
	}
}

func TestImbalanceSamplerSkipsIdleWindows(t *testing.T) {
	eng, n := buildNet(t)
	s := NewImbalanceSampler(n.Leaves[0].Uplinks(), sim.Millisecond)
	s.Start(eng)
	eng.Run(10 * sim.Millisecond)
	if s.Values.N() != 0 {
		t.Fatalf("%d samples from an idle fabric", s.Values.N())
	}
}

type nullSink struct{}

func (nullSink) Receive(*fabric.Packet, sim.Time) {}

func TestQueueSamplerSeesBacklog(t *testing.T) {
	eng, n := buildNet(t)
	// Two hosts flood one destination: its downlink queue fills.
	down := n.Leaves[1].Downlink(2)
	qs := NewQueueSampler([]*fabric.Link{down}, 100*sim.Microsecond)
	qs.Start(eng)
	n.Host(2).Bind(700, nullSink{})
	var seq int64
	for h := 0; h < 2; h++ {
		host := n.Host(h)
		sim.NewTicker(eng, 9*sim.Microsecond, func(now sim.Time) {
			p := &fabric.Packet{FlowID: uint64(h), DstHost: 2, DstPort: 700, Seq: seq, Payload: 1000}
			seq += 1000
			host.Send(p, now)
		})
	}
	eng.Run(20 * sim.Millisecond)
	if qs.All.N() == 0 {
		t.Fatal("no queue samples")
	}
	if qs.All.Max() == 0 {
		t.Fatal("oversubscribed port never showed a queue")
	}
	if qs.PerLink[0].Max() != qs.All.Max() {
		t.Fatal("per-link and aggregate series disagree")
	}
}

// Pin nearest-rank semantics: Quantile(q) is the value at rank ceil(q*n).
// The old int(q*n) indexing was off by one rank whenever q*n was integral
// (the median of {1,2,3,4} returned 3, and the median of two samples
// returned the maximum), which this table would have caught.
func TestSampleQuantileNearestRank(t *testing.T) {
	cases := []struct {
		name   string
		values []float64
		q      float64
		want   float64
	}{
		{"median-of-2", []float64{1, 2}, 0.5, 1},
		{"median-of-4", []float64{1, 2, 3, 4}, 0.5, 2},
		{"median-of-5", []float64{1, 2, 3, 4, 5}, 0.5, 3},
		{"p25-of-4", []float64{1, 2, 3, 4}, 0.25, 1},
		{"p75-of-4", []float64{1, 2, 3, 4}, 0.75, 3},
		{"p99-of-100", seq100(), 0.99, 99},
		{"p999-of-100", seq100(), 0.999, 100},
		{"p95-of-20", seq(20), 0.95, 19},
		{"zero-is-min", []float64{3, 1, 2}, 0, 1},
		{"one-is-max", []float64{3, 1, 2}, 1, 3},
		{"negative-clamps", []float64{3, 1, 2}, -0.5, 1},
		{"above-one-clamps", []float64{3, 1, 2}, 1.5, 3},
		{"single", []float64{7}, 0.5, 7},
		{"tiny-q", seq100(), 0.001, 1},
	}
	for _, c := range cases {
		var s Sample
		for _, v := range c.values {
			s.Add(v)
		}
		if got := s.Quantile(c.q); got != c.want {
			t.Errorf("%s: Quantile(%v) = %v, want %v", c.name, c.q, got, c.want)
		}
	}
}

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i + 1)
	}
	return v
}

func seq100() []float64 { return seq(100) }

func TestSampleReservePreservesValues(t *testing.T) {
	var s Sample
	s.Add(2)
	s.Add(1)
	s.Reserve(1000)
	s.Add(3)
	if s.N() != 3 || s.Min() != 1 || s.Max() != 3 {
		t.Fatalf("after Reserve: N=%d min=%v max=%v", s.N(), s.Min(), s.Max())
	}
}
