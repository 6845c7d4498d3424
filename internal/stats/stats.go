// Package stats collects and summarizes the measurements the paper
// reports: flow completion times by size bucket (Figures 9–11),
// throughput-imbalance CDFs over 10 ms windows (Figure 12), and queue
// occupancy CDFs (Figures 11c and 16).
package stats

import (
	"fmt"
	"math"
	"sort"

	"conga/internal/fabric"
	"conga/internal/sim"
)

// Sample is an online collection of float64 observations with quantile
// support. The zero value is ready to use and retains every observation;
// the sum and extrema are tracked as they arrive.
type Sample struct {
	values   []float64
	sorted   bool
	sum      float64
	min, max float64
}

// Add records one observation.
func (s *Sample) Add(v float64) {
	if len(s.values) == 0 || v < s.min {
		s.min = v
	}
	if len(s.values) == 0 || v > s.max {
		s.max = v
	}
	s.sum += v
	s.values = append(s.values, v)
	s.sorted = false
}

// Reserve grows the sample's capacity to hold at least n observations, so
// experiments that know their flow or sample count up front avoid repeated
// reallocation while recording.
func (s *Sample) Reserve(n int) {
	if n <= cap(s.values) {
		return
	}
	v := make([]float64, len(s.values), n)
	copy(v, s.values)
	s.values = v
}

// N returns the observation count.
func (s *Sample) N() int { return len(s.values) }

// Mean returns the average over all observations (0 for an empty sample).
func (s *Sample) Mean() float64 {
	if len(s.values) == 0 {
		return 0
	}
	return s.sum / float64(len(s.values))
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) by nearest-rank: the smallest
// value v such that at least q·n observations are ≤ v, i.e. the value at
// rank ⌈q·n⌉. q ≤ 0 returns the minimum and q ≥ 1 the maximum.
func (s *Sample) Quantile(q float64) float64 {
	n := len(s.values)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return s.min
	}
	if q >= 1 {
		return s.max
	}
	s.sort()
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return s.values[idx]
}

// CDF returns (value, cumulative fraction) pairs at each distinct
// observation, suitable for plotting against the paper's CDF figures.
func (s *Sample) CDF() [][2]float64 {
	if len(s.values) == 0 {
		return nil
	}
	s.sort()
	out := make([][2]float64, 0, len(s.values))
	n := float64(len(s.values))
	for i, v := range s.values {
		if i+1 < len(s.values) && s.values[i+1] == v {
			continue
		}
		out = append(out, [2]float64{v, float64(i+1) / n})
	}
	return out
}

func (s *Sample) sort() {
	if !s.sorted {
		sort.Float64s(s.values)
		s.sorted = true
	}
}

// Merge folds every observation of o into s.
func (s *Sample) Merge(o *Sample) {
	if len(o.values) == 0 {
		return
	}
	if len(s.values) == 0 || o.min < s.min {
		s.min = o.min
	}
	if len(s.values) == 0 || o.max > s.max {
		s.max = o.max
	}
	s.sum += o.sum
	s.values = append(s.values, o.values...)
	s.sorted = false
}

// FCT size buckets follow §5.2: small < 100 KB, large > 10 MB.
const (
	SmallFlowMax = 100 << 10
	LargeFlowMin = 10 << 20
)

// FCTRecorder accumulates flow completion times overall and by size bucket.
// FCTs are recorded both raw (seconds) and normalized to the optimal FCT an
// idle network would give the flow, the metric of Figures 9a/10a/11.
type FCTRecorder struct {
	Overall, OverallNorm Sample
	Small, SmallNorm     Sample
	Large, LargeNorm     Sample
	Bytes                int64
	Flows                int
	// OptimalSum accumulates the per-flow optimal FCTs so callers can
	// report the outlier-robust ratio-of-means mean(FCT)/mean(optimal)
	// alongside the per-flow-normalized mean.
	OptimalSum float64
}

// NewFCTRecorder returns a recorder with its sample buffers pre-sized for
// roughly expectedFlows completions, so recording stays allocation-free on
// the hot path. Empirical datacenter workloads (§5.2) are dominated by
// small flows, so the small buckets get full capacity and the large ones a
// fraction; the buffers still grow if an experiment overshoots.
func NewFCTRecorder(expectedFlows int) *FCTRecorder {
	r := &FCTRecorder{}
	if expectedFlows > 0 {
		r.Overall.Reserve(expectedFlows)
		r.OverallNorm.Reserve(expectedFlows)
		r.Small.Reserve(expectedFlows)
		r.SmallNorm.Reserve(expectedFlows)
		r.Large.Reserve(expectedFlows/8 + 1)
		r.LargeNorm.Reserve(expectedFlows/8 + 1)
	}
	return r
}

// NormOfMeans returns mean(FCT)/mean(optimal), the headline normalization
// of Figures 9a/10a/11.
func (r *FCTRecorder) NormOfMeans() float64 {
	if r.OptimalSum == 0 || r.Flows == 0 {
		return 0
	}
	return r.Overall.Mean() / (r.OptimalSum / float64(r.Flows))
}

// Record adds a completed flow. optimal is the idle-network FCT used for
// normalization; pass 0 to skip the normalized series.
func (r *FCTRecorder) Record(size int64, fct, optimal sim.Time) {
	sec := fct.Seconds()
	r.Overall.Add(sec)
	r.Flows++
	r.Bytes += size
	var norm float64
	if optimal > 0 {
		norm = float64(fct) / float64(optimal)
		r.OverallNorm.Add(norm)
		r.OptimalSum += optimal.Seconds()
	}
	switch {
	case size < SmallFlowMax:
		r.Small.Add(sec)
		if optimal > 0 {
			r.SmallNorm.Add(norm)
		}
	case size > LargeFlowMin:
		r.Large.Add(sec)
		if optimal > 0 {
			r.LargeNorm.Add(norm)
		}
	}
}

// Merge folds o's completions into r. The space-parallel harness keeps one
// recorder per domain and merges them in domain order after the run.
func (r *FCTRecorder) Merge(o *FCTRecorder) {
	r.Overall.Merge(&o.Overall)
	r.OverallNorm.Merge(&o.OverallNorm)
	r.Small.Merge(&o.Small)
	r.SmallNorm.Merge(&o.SmallNorm)
	r.Large.Merge(&o.Large)
	r.LargeNorm.Merge(&o.LargeNorm)
	r.Bytes += o.Bytes
	r.Flows += o.Flows
	r.OptimalSum += o.OptimalSum
}

// String summarizes the recorder for logs.
func (r *FCTRecorder) String() string {
	return fmt.Sprintf("flows=%d avgFCT=%.3fms normFCT=%.2f small=%.2f large=%.2f",
		r.Flows, r.Overall.Mean()*1e3, r.OverallNorm.Mean(), r.SmallNorm.Mean(), r.LargeNorm.Mean())
}

// ImbalanceSampler measures the throughput imbalance across a set of links
// in fixed windows: (MAX − MIN)/AVG of the byte counts per window, as in
// Figure 12. Windows with zero traffic are skipped.
type ImbalanceSampler struct {
	links  []*fabric.Link
	prev   []uint64
	Window sim.Time
	Values Sample
}

// NewImbalanceSampler samples the given links every window; attach it with
// Start.
func NewImbalanceSampler(links []*fabric.Link, window sim.Time) *ImbalanceSampler {
	return &ImbalanceSampler{links: links, prev: make([]uint64, len(links)), Window: window}
}

// Start begins periodic sampling on the engine.
func (s *ImbalanceSampler) Start(eng *sim.Engine) {
	for i, l := range s.links {
		s.prev[i] = l.TxBytes()
	}
	sim.NewTicker(eng, s.Window, func(sim.Time) { s.take() })
}

func (s *ImbalanceSampler) take() {
	min, max, sum := math.MaxFloat64, 0.0, 0.0
	for i, l := range s.links {
		tx := l.TxBytes()
		d := float64(tx - s.prev[i])
		s.prev[i] = tx
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
		sum += d
	}
	if sum == 0 {
		return
	}
	avg := sum / float64(len(s.links))
	s.Values.Add((max - min) / avg)
}

// QueueSampler records the queued bytes of a set of links at a fixed
// period, for the queue-occupancy CDFs of Figures 11c and 16.
type QueueSampler struct {
	links  []*fabric.Link
	Period sim.Time
	// PerLink[i] holds link i's samples; All aggregates every link.
	PerLink []Sample
	All     Sample
}

// NewQueueSampler prepares a sampler; attach it with Start.
func NewQueueSampler(links []*fabric.Link, period sim.Time) *QueueSampler {
	return &QueueSampler{links: links, Period: period, PerLink: make([]Sample, len(links))}
}

// Start begins periodic sampling on the engine.
func (s *QueueSampler) Start(eng *sim.Engine) {
	sim.NewTicker(eng, s.Period, func(sim.Time) {
		for i, l := range s.links {
			q := float64(l.QueuedBytes())
			s.PerLink[i].Add(q)
			s.All.Add(q)
		}
	})
}
