// Package workload generates the traffic the paper evaluates with:
// empirical flow-size distributions (the enterprise and data-mining
// workloads of Figure 8, plus the web-search workload used in the
// large-scale simulations), open-loop Poisson flow arrivals targeting a
// fabric load level, and synchronized Incast request patterns.
package workload

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"conga/internal/sim"
)

// SizeDist samples flow sizes in bytes.
type SizeDist interface {
	Name() string
	// Sample draws one flow size.
	Sample(r *sim.Rand) int64
	// Mean returns the expected flow size in bytes.
	Mean() float64
}

// Fixed is a degenerate distribution: every flow has the same size.
type Fixed int64

// Name implements SizeDist.
func (f Fixed) Name() string { return fmt.Sprintf("fixed-%d", int64(f)) }

// Sample implements SizeDist.
func (f Fixed) Sample(*sim.Rand) int64 { return int64(f) }

// Mean implements SizeDist.
func (f Fixed) Mean() float64 { return float64(f) }

// Empirical is a flow-size distribution given as CDF points, interpolated
// log-linearly in size (flow sizes span six orders of magnitude, so linear
// interpolation in log-space matches how the paper plots and reports them).
type Empirical struct {
	name  string
	sizes []float64 // ascending
	cdf   []float64 // ascending, cdf[len-1] == 1
	// logSizes precomputes math.Log of each size: Quantile interpolates
	// log-linearly and is the inner loop of every numeric integration over
	// the distribution (Mean, BytesFraction, CV), so hoisting the two
	// endpoint logs out of it cuts its transcendental work to one Exp.
	logSizes []float64
	mean     float64
	meanOK   bool
}

// NewEmpirical builds a distribution from (size, cdf) points. Points must
// be strictly increasing in both coordinates, with the final CDF equal to 1.
func NewEmpirical(name string, points [][2]float64) (*Empirical, error) {
	if len(points) < 2 {
		return nil, fmt.Errorf("workload: %s: need ≥2 CDF points", name)
	}
	e := &Empirical{name: name}
	for i, pt := range points {
		size, c := pt[0], pt[1]
		if size <= 0 {
			return nil, fmt.Errorf("workload: %s: non-positive size %v", name, size)
		}
		if i > 0 {
			if size <= e.sizes[i-1] {
				return nil, fmt.Errorf("workload: %s: sizes not increasing at %d", name, i)
			}
			if c < e.cdf[i-1] {
				return nil, fmt.Errorf("workload: %s: CDF not monotone at %d", name, i)
			}
		}
		if c < 0 || c > 1 {
			return nil, fmt.Errorf("workload: %s: CDF value %v out of [0,1]", name, c)
		}
		e.sizes = append(e.sizes, size)
		e.cdf = append(e.cdf, c)
		e.logSizes = append(e.logSizes, math.Log(size))
	}
	if e.cdf[len(e.cdf)-1] != 1 {
		return nil, fmt.Errorf("workload: %s: final CDF %v ≠ 1", name, e.cdf[len(e.cdf)-1])
	}
	return e, nil
}

// MustEmpirical is NewEmpirical that panics; for the package's built-ins.
func MustEmpirical(name string, points [][2]float64) *Empirical {
	e, err := NewEmpirical(name, points)
	if err != nil {
		panic(err)
	}
	return e
}

// Name implements SizeDist.
func (e *Empirical) Name() string { return e.name }

// Quantile returns the flow size at CDF value u in [0, 1).
func (e *Empirical) Quantile(u float64) float64 {
	if u <= e.cdf[0] {
		return e.sizes[0]
	}
	i := sort.SearchFloat64s(e.cdf, u)
	if i >= len(e.cdf) {
		return e.sizes[len(e.sizes)-1]
	}
	lo, hi := i-1, i
	span := e.cdf[hi] - e.cdf[lo]
	if span <= 0 {
		return e.sizes[hi]
	}
	frac := (u - e.cdf[lo]) / span
	// Log-linear interpolation in size. Each float64(x*y) in this file
	// forbids a fused multiply-add (DESIGN §3.9's determinism contract).
	return math.Exp(e.logSizes[lo] + float64(frac*(e.logSizes[hi]-e.logSizes[lo])))
}

// Sample implements SizeDist via inverse-transform sampling.
func (e *Empirical) Sample(r *sim.Rand) int64 {
	s := int64(e.Quantile(r.Float64()))
	if s < 1 {
		s = 1
	}
	return s
}

// Mean implements SizeDist. It integrates the inverse CDF numerically once
// and caches the result.
func (e *Empirical) Mean() float64 {
	if !e.meanOK {
		const steps = 200000
		sum := 0.0
		for i := 0; i < steps; i++ {
			u := (float64(i) + 0.5) / steps
			sum += e.Quantile(u)
		}
		e.mean = sum / steps
		e.meanOK = true
	}
	return e.mean
}

// BytesFraction returns the fraction of all traffic bytes carried by flows
// of size ≤ s — the "Bytes CDF" curve of Figure 8.
func (e *Empirical) BytesFraction(s float64) float64 {
	const steps = 200000
	total, below := 0.0, 0.0
	for i := 0; i < steps; i++ {
		u := (float64(i) + 0.5) / steps
		q := e.Quantile(u)
		total += q
		if q <= s {
			below += q
		}
	}
	if total == 0 {
		return 0
	}
	return below / total
}

// CV returns the coefficient of variation σ/µ of the flow size — the
// quantity Theorem 2 says governs load-balancing difficulty.
func (e *Empirical) CV() float64 {
	const steps = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < steps; i++ {
		u := (float64(i) + 0.5) / steps
		q := e.Quantile(u)
		sum += q
		sumSq += float64(q * q)
	}
	mean := sum / steps
	variance := sumSq/steps - float64(mean*mean)
	if variance < 0 {
		variance = 0
	}
	return math.Sqrt(variance) / mean
}

// Enterprise returns the paper's enterprise workload (Figure 8a),
// reconstructed from the published flow-size CDF. Roughly half of all bytes
// come from flows smaller than 35 MB, which is why ECMP does comparatively
// well on it (§5.2.1).
func Enterprise() *Empirical {
	return builtin(&enterpriseOnce, "enterprise", [][2]float64{
		{100, 0},
		{200, 0.10},
		{400, 0.25},
		{1e3, 0.50},
		{5e3, 0.70},
		{2e4, 0.80},
		{1e5, 0.875},
		{5e5, 0.92},
		{2e6, 0.955},
		{1e7, 0.98},
		{3.5e7, 0.9935},
		{1e8, 0.999},
		{2.5e8, 1.0},
	})
}

// DataMining returns the data-mining workload (Figure 8b), following the
// widely used VL2 tabulation. Its tail is very heavy: ~3.6% of flows are
// larger than 35 MB yet carry ~95% of the bytes.
func DataMining() *Empirical {
	return builtin(&dataMiningOnce, "data-mining", [][2]float64{
		{100, 0},
		{180, 0.10},
		{250, 0.20},
		{560, 0.30},
		{900, 0.40},
		{1100, 0.50},
		{1870, 0.60},
		{3160, 0.70},
		{1e4, 0.80},
		{4e5, 0.90},
		{3.16e6, 0.95},
		{1e8, 0.98},
		{1e9, 1.0},
	})
}

// WebSearch returns the web-search workload (from the DCTCP measurement
// study) used by the paper's large-scale simulations (Figures 15 and 16).
func WebSearch() *Empirical {
	return builtin(&webSearchOnce, "web-search", [][2]float64{
		{6e3, 0.15},
		{1.3e4, 0.30},
		{1.9e4, 0.45},
		{3.3e4, 0.60},
		{5.3e4, 0.70},
		{1.33e5, 0.80},
		{6.67e5, 0.90},
		{1.34e6, 0.95},
		{3.3e6, 0.98},
		{6.65e6, 1.0},
	})
}

// The built-in distributions are immutable process-wide singletons. Each
// sweep run used to rebuild its distribution and re-integrate the 200k-step
// mean; constructing once (with the mean precomputed inside the Once, so
// the shared value is read-only afterwards and safe under concurrent
// engines) makes that a one-time cost.
var enterpriseOnce, dataMiningOnce, webSearchOnce builtinDist

type builtinDist struct {
	once sync.Once
	dist *Empirical
}

func builtin(b *builtinDist, name string, points [][2]float64) *Empirical {
	b.once.Do(func() {
		b.dist = MustEmpirical(name, points)
		b.dist.Mean()
	})
	return b.dist
}
