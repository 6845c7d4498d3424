package conga

import (
	"fmt"
	"sort"
	"time"

	"conga/internal/core"
	"conga/internal/fabric"
	"conga/internal/replay"
	"conga/internal/sim"
	"conga/internal/stats"
	"conga/internal/tcp"
	"conga/internal/workload"
)

// Workload names a flow-size distribution.
type Workload int

// The paper's workloads (Figure 8 and §5.5).
const (
	WorkloadEnterprise Workload = iota
	WorkloadDataMining
	WorkloadWebSearch
)

func (w Workload) String() string {
	switch w {
	case WorkloadEnterprise:
		return "enterprise"
	case WorkloadDataMining:
		return "data-mining"
	case WorkloadWebSearch:
		return "web-search"
	default:
		return fmt.Sprintf("Workload(%d)", int(w))
	}
}

// SizeDist is a flow-size distribution; see the workload package for the
// built-ins and the Empirical constructor.
type SizeDist = workload.SizeDist

// Dist returns the distribution for a named workload.
func (w Workload) Dist() SizeDist {
	switch w {
	case WorkloadEnterprise:
		return workload.Enterprise()
	case WorkloadDataMining:
		return workload.DataMining()
	case WorkloadWebSearch:
		return workload.WebSearch()
	default:
		panic(fmt.Sprintf("conga: unknown workload %d", int(w)))
	}
}

// FCTConfig describes a flow-completion-time experiment (§5.2): an
// open-loop Poisson workload at a target load over a chosen topology and
// scheme.
type FCTConfig struct {
	Topology  Topology
	Scheme    Scheme
	Params    *Params // nil → paper defaults (CONGA-Flow gets its 13 ms timeout)
	Workload  Workload
	Custom    SizeDist // overrides Workload when non-nil
	Load      float64  // fraction of per-direction leaf bisection bandwidth
	Transport TransportConfig

	// Duration is the arrival window of simulated time. Flows started
	// inside it are allowed to finish afterwards, up to DrainTimeout.
	Duration     time.Duration
	DrainTimeout time.Duration
	// MaxFlows bounds the experiment (0 = unlimited).
	MaxFlows int

	Seed uint64

	// CollectImbalance samples leaf-0 uplink throughput imbalance over
	// 10 ms windows (Figure 12).
	CollectImbalance bool
	// CollectQueues samples every fabric queue (Figures 11c and 16).
	CollectQueues bool

	// Telemetry, when non-nil, enables the observability subsystem for
	// this run; the populated registry comes back in FCTResult.Telemetry
	// and flushes to Telemetry.Dir (if set) before RunFCT returns.
	// Enabling it never changes simulation outcomes.
	Telemetry *TelemetryOptions

	WCMPWeights []float64

	// Record, when true, captures the exact flow-arrival sequence of this
	// run; the sealed trace comes back in FCTResult.Trace, ready for
	// Trace.Write and later replay. Recording observes arrivals as they
	// are drawn and never changes simulation outcomes.
	Record bool
	// Replay, when non-nil, re-injects this recorded arrival sequence
	// instead of drawing a live Poisson workload: Load, Workload, Custom,
	// MaxFlows and the workload seed are ignored, and Duration is taken
	// from the trace header so the run horizon matches the recording.
	// The trace must have been recorded on the same fabric shape
	// (topology fingerprints are compared; mismatches are refused), but
	// scheme, transport, link failures and buffer sizing are free to
	// differ — that is the point. Replaying into the identical
	// scheme/config reproduces the recording run bit-identically.
	Replay *replay.Trace
	// CollectFlows keeps every completed flow's (ID, size, FCT) in
	// FCTResult.FlowFCTs, sorted by flow ID — the raw material for
	// matched-pairs comparison (stats.PairedSample, RunReplayCompare).
	CollectFlows bool

	// Check audits the run (ROADMAP item 2(a)) and makes RunFCT return an
	// error naming the first invariant that failed and the leaf, link or
	// flow it failed on. At every flowlet sweep each leaf's flowlet table
	// must be consistent (core.FlowletTable.Check), and each link's queue
	// must hold exactly the bytes it counts, within its buffer, behind an
	// armed drain and a claim that still holds, with no queued packet's
	// event pending; every completed flow must have delivered exactly its
	// size; and a run that drains (no live event left) must have every
	// pooled packet back on its pool and no arrival, drain or queued packet
	// left on any link. Checking never changes simulation outcomes; off, it
	// costs one branch per sweep.
	Check bool

	// Parallel, when > 1, runs this single experiment space-parallel: the
	// fabric is partitioned into Parallel domains (one engine and worker
	// goroutine each; see internal/fabric/partition.go) executed in bounded
	// time windows by sim.ParallelEngine. Parallel <= 1 is the one-domain
	// case of the same path. Results are deterministic for a fixed Parallel
	// value but differ between values: several domains interleave
	// same-timestamp events differently and keep every receiver bound for
	// the whole run (see run.inject). Several domains run a plain-TCP cell
	// only: they refuse MPTCP, Telemetry, Record, Replay, CollectQueues and
	// CollectImbalance, which run sequentially.
	Parallel int
}

func (c FCTConfig) withDefaults() FCTConfig {
	c.Topology = c.Topology.withDefaults()
	if c.Duration == 0 {
		c.Duration = 40 * time.Millisecond
	}
	if c.DrainTimeout == 0 {
		c.DrainTimeout = 2 * time.Second
	}
	if c.MaxFlows == 0 {
		c.MaxFlows = 10000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	c.Transport = c.Transport.withDefaults()
	return c
}

// CDF is a list of (value, cumulative-fraction) points.
type CDF = [][2]float64

// FlowFCT is one completed flow's identity and outcome, collected when
// FCTConfig.CollectFlows is set. Matching slices from two runs of the same
// trace pair one-to-one by ID.
type FlowFCT struct {
	ID   uint64
	Size int64
	FCT  time.Duration
}

// FCTResult carries the statistics of one experiment run.
type FCTResult struct {
	Scheme    string
	Workload  string
	Load      float64
	Generated int
	Completed int

	// AvgFCT is the mean completion time of finished flows.
	AvgFCT time.Duration
	// P99FCT is the 99th-percentile completion time.
	P99FCT time.Duration
	// NormFCT is mean(FCT)/mean(optimal FCT), the idle-network
	// normalization of Figures 9a, 10a and 11a/b (ratio of means: robust
	// to per-flow outliers).
	NormFCT float64
	// NormFCTPerFlow is the mean of per-flow FCT/optimal ratios; it is
	// tail-sensitive and reported for completeness.
	NormFCTPerFlow float64
	// SmallAvgFCT / LargeAvgFCT break the mean down by flow size
	// (< 100 KB, > 10 MB) for Figures 9b/c and 10b/c.
	SmallAvgFCT time.Duration
	LargeAvgFCT time.Duration
	SmallCount  int
	LargeCount  int

	// Drops counts packets lost anywhere in the fabric.
	Drops uint64
	// Retransmits and Timeouts aggregate sender loss recovery.
	Retransmits uint64
	Timeouts    uint64

	// ImbalanceCDF is the Figure 12 series (present when requested).
	ImbalanceCDF CDF
	// ImbalanceMean summarizes it.
	ImbalanceMean float64
	// QueueCDFs holds per-fabric-link queue occupancy CDFs by link name,
	// and HotspotQueueCDF the single most loaded link's (Figure 11c).
	QueueCDFs       map[string]CDF
	HotspotQueueCDF CDF
	// AvgQueueByLink reports each fabric link's mean queue in bytes
	// (Figure 16's per-port series).
	AvgQueueByLink map[string]float64

	// SimTime is how much virtual time ran; Events how many simulator
	// events executed (cost accounting for the bench harness).
	SimTime time.Duration
	Events  uint64
	// Wall is the real time the run cost (events/sec reporting in sweep
	// tables). It measures the environment, not the simulation:
	// determinism comparisons must zero it first.
	Wall time.Duration

	// Telemetry is the run's populated registry when FCTConfig.Telemetry
	// was set (already collected and flushed), nil otherwise.
	Telemetry *TelemetryRegistry

	// Trace is the sealed arrival recording when FCTConfig.Record was set.
	Trace *replay.Trace
	// FlowFCTs lists completed flows sorted by ID when
	// FCTConfig.CollectFlows was set.
	FlowFCTs []FlowFCT
}

// OptimalFCT returns the idle-network completion time used for
// normalization: wire-rate transmission on the access link, store-and-
// forward of one full segment on each subsequent hop, propagation both
// ways, and the final ACK's return. It deliberately excludes slow-start
// effects so the normalization is scheme-independent and monotone in size.
func OptimalFCT(t Topology, transport TransportConfig, size int64) time.Duration {
	tt := t.withDefaults()
	mss := tcp.MTUToMSS(transport.MTU)
	if mss <= 0 {
		mss = 1460
	}
	segments := (size + int64(mss) - 1) / int64(mss)
	wireBytes := size + segments*int64(fabric.HeaderOverhead)
	access := tt.AccessGbps * 1e9
	fab := tt.FabricGbps * 1e9

	// Pipeline: all bytes serialize once at the access link; the last
	// segment then stores-and-forwards across leaf→spine, spine→leaf and
	// leaf→host.
	lastSeg := size - (segments-1)*int64(mss)
	lastWire := float64(lastSeg + fabric.HeaderOverhead)
	transmit := float64(wireBytes*8)/access +
		(lastWire+float64(core.EncapOverhead))*8/fab + // leaf→spine
		(lastWire+float64(core.EncapOverhead))*8/fab + // spine→leaf
		lastWire*8/access // leaf→host

	// Propagation out (2 access + 2 fabric hops) plus the last ACK's trip
	// back (64 B over four hops plus the same propagation).
	const prop = 6e-6 // 2·2µs access + 2·1µs fabric
	ack := 64 * 8 * (2/access + 2/fab)
	return time.Duration((transmit + 2*prop + ack) * 1e9)
}

// RunFCT executes one FCT experiment, on cfg.Parallel partition domains
// (one when Parallel <= 1).
func RunFCT(cfg FCTConfig) (*FCTResult, error) {
	start := time.Now()
	res, err := runFCT(cfg)
	if res != nil {
		res.Wall = time.Since(start)
	}
	return res, err
}

// checkParallel rejects, up front and naming the sequential alternative,
// every option the space-parallel engine does not carry across domains: it
// runs a plain-TCP FCT cell and nothing that observes, records or replays
// it.
func (cfg FCTConfig) checkParallel() error {
	var opt string
	switch {
	case cfg.Scheme == SchemeMPTCPMarker:
		opt = "Scheme mptcp"
	case cfg.Transport.Kind == TransportMPTCP:
		opt = "Transport.Kind TransportMPTCP"
	case cfg.Telemetry != nil:
		opt = "Telemetry"
	case cfg.Record:
		opt = "Record"
	case cfg.Replay != nil:
		opt = "Replay"
	case cfg.CollectQueues:
		opt = "CollectQueues"
	case cfg.CollectImbalance:
		opt = "CollectImbalance"
	default:
		return nil
	}
	return fmt.Errorf("conga: %s is not supported with Parallel=%d (the space-parallel engine runs plain-TCP cells only); run it sequentially (Parallel <= 1)", opt, cfg.Parallel)
}

// fctShard is one domain's share of an FCT run's results. Each domain's
// completions land in its own shard, in its engine's execution order, and
// the shards merge in domain order after the run — so results are
// deterministic for a fixed domain count regardless of goroutine
// scheduling, and one domain merges nothing.
type fctShard struct {
	rec            *stats.FCTRecorder
	retx, timeouts uint64
	flows          []FlowFCT // populated when CollectFlows is set
}

func runFCT(cfg FCTConfig) (*FCTResult, error) {
	cfg = cfg.withDefaults()
	switch {
	case cfg.MaxFlows < 0:
		return nil, fmt.Errorf("conga: MaxFlows %d must not be negative (0 means the default, 10000)", cfg.MaxFlows)
	case cfg.DrainTimeout < 0:
		return nil, fmt.Errorf("conga: DrainTimeout %v must not be negative (0 means the default, 2s)", cfg.DrainTimeout)
	}
	if cfg.Parallel > 1 {
		if err := cfg.checkParallel(); err != nil {
			return nil, err
		}
	}
	if cfg.Replay != nil {
		if err := cfg.checkReplay(); err != nil {
			return nil, err
		}
		if cfg.Replay.Header.DurationNs > 0 {
			// The replayed horizon is the recording's, not the caller's: an
			// arrival window shorter than the trace span would truncate it.
			cfg.Duration = time.Duration(cfg.Replay.Header.DurationNs)
		}
	}
	r, err := newRun(cfg.Topology, cfg.Scheme, cfg.Params, cfg.Transport, cfg.WCMPWeights, cfg.Seed, cfg.Telemetry, cfg.Parallel)
	if err != nil {
		return nil, err
	}
	eng0 := r.doms[0].eng // where the one-engine collectors tick
	if cfg.Check {
		r.enableCheck()
	}

	dist := cfg.Custom
	if dist == nil {
		dist = cfg.Workload.Dist()
	}

	// The arrival sequence is fully materialized before the run: lifted
	// out of the replay trace, or drawn from the generator's private RNG
	// stream in exactly the order a live Poisson process would consume it.
	header := cfg.traceHeader(dist.Name())
	var flows []replay.Flow
	var provenance string
	if cfg.Replay != nil {
		flows = cfg.Replay.Flows
		// Re-recording a replay preserves the original kinds and workload
		// provenance; only scheme/seed describe the current run.
		header.Workload, header.Load = cfg.Replay.Header.Workload, cfg.Replay.Header.Load
		provenance = traceProvenance("replay", cfg.Replay.Header)
	} else {
		stride := uint64(1)
		if r.transport == TransportMPTCP {
			stride = uint64(cfg.Transport.Subflows)
		}
		gen, err := workload.NewGenerator(eng0, r.net, workload.GenConfig{
			Load:          cfg.Load,
			Dist:          dist,
			Duration:      sim.Duration(cfg.Duration),
			MaxFlows:      cfg.MaxFlows,
			InterLeafOnly: true,
			Stride:        stride,
			Seed:          cfg.Seed,
		}, nil)
		if err != nil {
			return nil, err
		}
		drawn := gen.Pregenerate()
		flows = make([]replay.Flow, 0, len(drawn))
		for _, a := range drawn {
			flows = append(flows, replay.Flow{At: a.At, Src: a.Src, Dst: a.Dst, FlowID: a.FlowID, Size: a.Size, Kind: replay.KindWorkload})
		}
	}
	var trace *replay.Trace
	if cfg.Record {
		rec := &replay.Recorder{Header: header}
		for _, f := range flows {
			rec.Add(f)
		}
		trace = rec.Trace()
		if cfg.Replay == nil {
			provenance = traceProvenance("record", trace.Header)
		}
	}
	// Stamp trace ancestry into the sink headers: flushed telemetry from a
	// replayed (or recording) run names the workload behind it.
	r.reg.SetProvenance(provenance)

	// The completion callback is bound once per run (not per flow) and
	// recomputes the per-flow optimal FCT from the size — OptimalFCT is
	// pure, so computing it at completion changes no simulation event.
	shards := make([]*fctShard, len(r.doms))
	for d := range shards {
		shards[d] = &fctShard{rec: stats.NewFCTRecorder(cfg.MaxFlows / len(shards))}
	}
	r.onFlowDone(func(d int, flowID uint64, size int64, fct sim.Time, retx, timeouts uint64) {
		sh := shards[d]
		sh.rec.Record(size, fct, sim.Duration(OptimalFCT(cfg.Topology, cfg.Transport, size)))
		sh.retx += retx
		sh.timeouts += timeouts
		if cfg.CollectFlows {
			sh.flows = append(sh.flows, FlowFCT{ID: flowID, Size: size, FCT: time.Duration(fct)})
		}
	})

	// The samplers tick at fixed periods over a known horizon, so their
	// buffers can be sized exactly instead of growing during the run.
	horizon := sim.Duration(cfg.Duration) + sim.Duration(cfg.DrainTimeout)
	var imb *stats.ImbalanceSampler
	if cfg.CollectImbalance {
		imb = stats.NewImbalanceSampler(r.net.Leaves[0].Uplinks(), 10*sim.Millisecond)
		imb.Values.Reserve(int(horizon / (10 * sim.Millisecond)))
		imb.Start(eng0)
	}
	var qs *stats.QueueSampler
	if cfg.CollectQueues {
		qs = stats.NewQueueSampler(r.net.FabricLinks(), 100*sim.Microsecond)
		samples := int(horizon / (100 * sim.Microsecond))
		qs.All.Reserve(samples * len(r.net.FabricLinks()))
		for i := range qs.PerLink {
			qs.PerLink[i].Reserve(samples)
		}
		qs.Start(eng0)
	}

	r.inject(flows)
	endAt := r.exec(sim.Duration(cfg.Duration) + sim.Duration(cfg.DrainTimeout))
	if cfg.Check {
		if err := r.audit(); err != nil {
			return nil, err
		}
	}

	rec := shards[0].rec
	var retx, timeouts uint64
	var flowLog []FlowFCT
	for d, sh := range shards {
		if d > 0 {
			rec.Merge(sh.rec)
		}
		retx += sh.retx
		timeouts += sh.timeouts
		flowLog = append(flowLog, sh.flows...)
	}
	res := &FCTResult{
		Scheme:         SchemeName(cfg.Scheme),
		Workload:       dist.Name(),
		Load:           cfg.Load,
		Generated:      r.started(),
		Completed:      rec.Flows,
		AvgFCT:         time.Duration(rec.Overall.Mean() * 1e9),
		P99FCT:         time.Duration(rec.Overall.Quantile(0.99) * 1e9),
		NormFCT:        rec.NormOfMeans(),
		NormFCTPerFlow: rec.OverallNorm.Mean(),
		SmallAvgFCT:    time.Duration(rec.Small.Mean() * 1e9),
		LargeAvgFCT:    time.Duration(rec.Large.Mean() * 1e9),
		SmallCount:     rec.Small.N(),
		LargeCount:     rec.Large.N(),
		Drops:          r.net.TotalDrops(),
		Retransmits:    retx,
		Timeouts:       timeouts,
		SimTime:        time.Duration(endAt),
		Events:         r.events(),
		Trace:          trace,
	}
	if res.Telemetry, err = r.finish(); err != nil {
		return nil, err
	}
	if cfg.CollectFlows {
		sort.Slice(flowLog, func(i, j int) bool { return flowLog[i].ID < flowLog[j].ID })
		res.FlowFCTs = flowLog
	}
	if imb != nil {
		res.ImbalanceCDF = imb.Values.CDF()
		res.ImbalanceMean = imb.Values.Mean()
	}
	if qs != nil {
		res.QueueCDFs = make(map[string]CDF, len(r.net.FabricLinks()))
		res.AvgQueueByLink = make(map[string]float64, len(r.net.FabricLinks()))
		hotIdx, hotMean := -1, -1.0
		for i, l := range r.net.FabricLinks() {
			res.QueueCDFs[l.Name] = qs.PerLink[i].CDF()
			m := qs.PerLink[i].Mean()
			res.AvgQueueByLink[l.Name] = m
			if m > hotMean {
				hotMean, hotIdx = m, i
			}
		}
		if hotIdx >= 0 {
			res.HotspotQueueCDF = qs.PerLink[hotIdx].CDF()
		}
	}
	return res, nil
}
