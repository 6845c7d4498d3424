package conga

import (
	"fmt"
	"time"

	"conga/internal/replay"
	"conga/internal/stats"
)

// ReplayCompareConfig describes a paired A/B comparison: one recorded
// trace replayed into two configurations (typically two schemes over the
// same fabric), with per-flow FCTs matched one-to-one by flow ID.
type ReplayCompareConfig struct {
	// Trace is the recorded workload both sides replay.
	Trace *replay.Trace
	// A and B are the two configurations under comparison. Their Replay,
	// Record and CollectFlows fields are managed by the runner; everything
	// else (Scheme, Transport, Params, failed links, buffers, Parallel) is
	// the caller's experimental contrast.
	A, B FCTConfig
}

// The bootstrap behind every confidence interval: 1000 resamples, a 95 %
// level, and a fixed PRNG seed, so a comparison is deterministic.
const (
	compareResamples  = 1000
	compareConfidence = 0.95
	compareSeed       = 1
)

// PairedBucket summarizes the matched pairs of one flow-size bucket.
// Deltas are B−A: negative means B completed flows faster.
type PairedBucket struct {
	Name  string
	Pairs int

	MeanA, MeanB time.Duration
	// MeanDelta is mean(B−A) with its bootstrap confidence interval.
	MeanDelta        time.Duration
	DeltaLo, DeltaHi time.Duration
	// MeanRatio is mean(B)/mean(A) with its bootstrap confidence interval
	// (the normalized-FCT style headline: 0.8 → B is 20% faster).
	MeanRatio        float64
	RatioLo, RatioHi float64
	// WinFraction is the fraction of pairs B won outright.
	WinFraction float64
	// MedianDelta and P99Delta are per-pair delta quantiles.
	MedianDelta time.Duration
	P99Delta    time.Duration
}

// FlowDelta is one matched flow's outcome under both sides.
type FlowDelta struct {
	ID   uint64
	Size int64
	A, B time.Duration
}

// ReplayCompareResult carries both runs and the paired statistics.
type ReplayCompareResult struct {
	Header replay.Header
	A, B   *FCTResult

	// Overall, Small (<100 KB) and Large (>10 MB) bucket the pairs by flow
	// size, mirroring the paper's FCT breakdowns.
	Overall, Small, Large PairedBucket

	// Deltas lists every matched pair sorted by flow ID.
	Deltas []FlowDelta
	// UnmatchedA/B count flows that completed under only one side (e.g. a
	// flow that beat the drain timeout under one scheme but not the other);
	// they are excluded from the paired statistics.
	UnmatchedA, UnmatchedB int
}

// RunReplayCompare replays one recorded workload into both configurations
// and reports matched-pairs FCT statistics with bootstrap confidence
// intervals. Because both sides see the identical arrival sequence, the
// per-flow deltas isolate the scheme effect from workload noise — the
// difference two independently seeded runs cannot separate.
func RunReplayCompare(cfg ReplayCompareConfig) (*ReplayCompareResult, error) {
	if cfg.Trace == nil {
		return nil, fmt.Errorf("conga: RunReplayCompare needs a trace")
	}

	run := func(side FCTConfig) (*FCTResult, error) {
		side.Replay = cfg.Trace
		side.Record = false
		side.CollectFlows = true
		return RunFCT(side)
	}
	ra, err := run(cfg.A)
	if err != nil {
		return nil, fmt.Errorf("conga: replay side A: %w", err)
	}
	rb, err := run(cfg.B)
	if err != nil {
		return nil, fmt.Errorf("conga: replay side B: %w", err)
	}

	res := &ReplayCompareResult{Header: cfg.Trace.Header, A: ra, B: rb}

	// Match by flow ID: both slices are ID-sorted, so a single merge walk
	// pairs them.
	fa, fb := ra.FlowFCTs, rb.FlowFCTs
	var overall, small, large stats.PairedSample
	overall.Reserve(len(fa))
	i, j := 0, 0
	for i < len(fa) && j < len(fb) {
		switch {
		case fa[i].ID < fb[j].ID:
			res.UnmatchedA++
			i++
		case fa[i].ID > fb[j].ID:
			res.UnmatchedB++
			j++
		default:
			a, b := fa[i], fb[j]
			res.Deltas = append(res.Deltas, FlowDelta{ID: a.ID, Size: a.Size, A: a.FCT, B: b.FCT})
			av, bv := a.FCT.Seconds(), b.FCT.Seconds()
			overall.Add(av, bv)
			if a.Size < stats.SmallFlowMax {
				small.Add(av, bv)
			} else if a.Size > stats.LargeFlowMin {
				large.Add(av, bv)
			}
			i++
			j++
		}
	}
	res.UnmatchedA += len(fa) - i
	res.UnmatchedB += len(fb) - j

	res.Overall = pairedBucket("overall", &overall)
	res.Small = pairedBucket("small", &small)
	res.Large = pairedBucket("large", &large)
	return res, nil
}

func pairedBucket(name string, p *stats.PairedSample) PairedBucket {
	b := PairedBucket{Name: name, Pairs: p.N()}
	if p.N() == 0 {
		return b
	}
	secs := func(v float64) time.Duration { return time.Duration(v * 1e9) }
	b.MeanA = secs(p.MeanA())
	b.MeanB = secs(p.MeanB())
	b.MeanDelta = secs(p.MeanDelta())
	lo, hi := p.MeanDeltaCI(compareResamples, compareConfidence, compareSeed)
	b.DeltaLo, b.DeltaHi = secs(lo), secs(hi)
	b.MeanRatio = p.MeanRatio()
	b.RatioLo, b.RatioHi = p.MeanRatioCI(compareResamples, compareConfidence, compareSeed+1)
	b.WinFraction = p.WinFraction()
	b.MedianDelta = secs(p.DeltaQuantile(0.50))
	b.P99Delta = secs(p.DeltaQuantile(0.99))
	return b
}
