package stats

import (
	"math"
	"sort"

	"conga/internal/sim"
)

// PairedSample holds matched observations of the same experimental units
// under two conditions — here, the same replayed flow's FCT under scheme A
// and scheme B. Because the pairing removes the between-flow variance
// (flow size and arrival time are identical by construction), the paired
// mean delta is a far sharper comparison than differencing two independent
// means, and its uncertainty is estimated by bootstrap resampling of the
// pairs.
type PairedSample struct {
	a, b []float64
}

// Add appends one matched pair.
func (p *PairedSample) Add(a, b float64) {
	p.a = append(p.a, a)
	p.b = append(p.b, b)
}

// Reserve pre-sizes for n pairs.
func (p *PairedSample) Reserve(n int) {
	if cap(p.a) < n {
		p.a = append(make([]float64, 0, n), p.a...)
		p.b = append(make([]float64, 0, n), p.b...)
	}
}

// N returns the number of pairs.
func (p *PairedSample) N() int { return len(p.a) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// MeanA and MeanB return the per-condition means.
func (p *PairedSample) MeanA() float64 { return mean(p.a) }
func (p *PairedSample) MeanB() float64 { return mean(p.b) }

// MeanDelta returns mean(B−A): negative means condition B is smaller
// (faster, for FCTs) on average.
func (p *PairedSample) MeanDelta() float64 { return mean(p.b) - mean(p.a) }

// MeanRatio returns mean(B)/mean(A) (NaN with no pairs or zero mean A):
// 0.8 means B's mean is 20% below A's.
func (p *PairedSample) MeanRatio() float64 {
	ma := mean(p.a)
	if p.N() == 0 || ma == 0 {
		return math.NaN()
	}
	return mean(p.b) / ma
}

// DeltaQuantile returns the q-quantile (nearest-rank) of the per-pair
// deltas B−A.
func (p *PairedSample) DeltaQuantile(q float64) float64 {
	if p.N() == 0 {
		return 0
	}
	d := make([]float64, p.N())
	for i := range d {
		d[i] = p.b[i] - p.a[i]
	}
	sort.Float64s(d)
	k := int(math.Ceil(q*float64(len(d)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(d) {
		k = len(d) - 1
	}
	return d[k]
}

// WinFraction returns the fraction of pairs where B < A (B "wins").
func (p *PairedSample) WinFraction() float64 {
	if p.N() == 0 {
		return 0
	}
	wins := 0
	for i := range p.a {
		if p.b[i] < p.a[i] {
			wins++
		}
	}
	return float64(wins) / float64(p.N())
}

// Bootstrap estimates a conf (e.g. 0.95) percentile-bootstrap confidence
// interval for an arbitrary statistic of the paired sample: resamples
// whole pairs with replacement (preserving the within-pair dependence),
// recomputes stat on each resample, and returns the (1−conf)/2 and
// (1+conf)/2 empirical quantiles. The PRNG is seeded, so results are
// deterministic.
func (p *PairedSample) Bootstrap(stat func(a, b []float64) float64, resamples int, conf float64, seed uint64) (lo, hi float64) {
	n := p.N()
	if n == 0 || resamples <= 0 {
		return 0, 0
	}
	rng := sim.NewRand(seed)
	ra := make([]float64, n)
	rb := make([]float64, n)
	vals := make([]float64, resamples)
	for r := 0; r < resamples; r++ {
		for i := 0; i < n; i++ {
			j := rng.Intn(n)
			ra[i], rb[i] = p.a[j], p.b[j]
		}
		vals[r] = stat(ra, rb)
	}
	sort.Float64s(vals)
	alpha := float64((1 - conf) / 2) // float64: 1-alpha is never a fused multiply-add
	idx := func(q float64) int {
		k := int(math.Ceil(q*float64(len(vals)))) - 1
		if k < 0 {
			k = 0
		}
		if k >= len(vals) {
			k = len(vals) - 1
		}
		return k
	}
	return vals[idx(alpha)], vals[idx(1-alpha)]
}

// MeanDeltaCI bootstraps a confidence interval for mean(B−A).
func (p *PairedSample) MeanDeltaCI(resamples int, conf float64, seed uint64) (lo, hi float64) {
	return p.Bootstrap(func(a, b []float64) float64 { return mean(b) - mean(a) }, resamples, conf, seed)
}

// MeanRatioCI bootstraps a confidence interval for mean(B)/mean(A).
func (p *PairedSample) MeanRatioCI(resamples int, conf float64, seed uint64) (lo, hi float64) {
	return p.Bootstrap(func(a, b []float64) float64 {
		ma := mean(a)
		if ma == 0 {
			return math.NaN()
		}
		return mean(b) / ma
	}, resamples, conf, seed)
}
