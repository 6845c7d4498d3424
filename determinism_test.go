package conga

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"testing"
	"time"

	"conga/internal/runner"
)

// benchTopo is the small 64-host testbed the figure cells below run on: it
// exercises every code path of an FCT, Incast or HDFS run in well under a
// second, not paper-scale statistics.
func benchTopo() Topology {
	return Topology{Leaves: 2, Spines: 2, HostsPerLeaf: 8, LinksPerSpine: 2,
		AccessGbps: 10, FabricGbps: 20}
}

// fingerprint is an FNV-1a accumulator over fixed-width words.
type fingerprint struct{ h hash.Hash64 }

func newFingerprint() fingerprint { return fingerprint{fnv.New64a()} }

func (f fingerprint) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	f.h.Write(b[:])
}

func (f fingerprint) f64(v float64) { f.u64(math.Float64bits(v)) }

func (f fingerprint) cdf(c CDF) {
	f.u64(uint64(len(c)))
	for _, p := range c {
		f.f64(p[0])
		f.f64(p[1])
	}
}

// fctFingerprint hashes everything the link model can influence in an FCT
// run — per-flow (ID, size, FCT), drops, retransmits, timeouts, NormFCT
// bits and, when collected, the queue and imbalance CDFs — and nothing it
// is allowed to change: the executed-event count stays out.
func fctFingerprint(r *FCTResult) uint64 {
	f := newFingerprint()
	f.u64(uint64(len(r.FlowFCTs)))
	for _, fl := range r.FlowFCTs {
		f.u64(fl.ID)
		f.u64(uint64(fl.Size))
		f.u64(uint64(fl.FCT))
	}
	f.u64(r.Drops)
	f.u64(r.Retransmits)
	f.u64(r.Timeouts)
	f.f64(r.NormFCT)
	f.cdf(r.ImbalanceCDF)
	f.f64(r.ImbalanceMean)
	names := make([]string, 0, len(r.QueueCDFs))
	for name := range r.QueueCDFs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f.h.Write([]byte(name))
		f.cdf(r.QueueCDFs[name])
		f.f64(r.AvgQueueByLink[name])
	}
	f.cdf(r.HotspotQueueCDF)
	return f.h.Sum64()
}

// goldenResult is what a golden row pins: the executed-event count, the
// loss and completion figures and, for an FCT row, the per-flow
// fctFingerprint. For an Incast row norm holds GoodputFraction and rounds
// CompletedRounds; an FCT row's norm is NormFCT.
type goldenResult struct {
	events, drops, retx, timeouts uint64
	norm                          float64
	rounds                        int
	flows                         uint64
}

func (g goldenResult) String() string {
	return fmt.Sprintf("{events:%d drops:%d retx:%d timeouts:%d norm:%v rounds:%d flows:%#x}",
		g.events, g.drops, g.retx, g.timeouts, g.norm, g.rounds, g.flows)
}

// goldenRow is one simulation cell (exactly one of fct and incast is set)
// with its pinned result and the Mallocs its run made at one processor,
// after a warm-up run, when the constants were recorded.
type goldenRow struct {
	name   string
	fct    *FCTConfig
	incast *IncastConfig
	long   bool // a scale cell, seconds plain and tens of seconds under -race: skipped under -short
	// linkModel marks the rows whose fingerprints were recorded from the
	// discrete link (TestLinkModelGolden runs them); TestDeterminismGolden
	// runs the others.
	linkModel bool
	want      goldenResult
	mallocs   uint64
}

// run executes the row's cell, audited by the Check invariants when check is
// set (an audit failure is the run's error). A non-nil after receives the
// memory statistics as the simulation returns, before the result is hashed.
func (r goldenRow) run(check bool, after *runtime.MemStats) (goldenResult, error) {
	var (
		fr  *FCTResult
		ir  *IncastResult
		err error
	)
	if r.incast != nil {
		cfg := *r.incast
		cfg.Check = check
		ir, err = RunIncast(cfg)
	} else {
		cfg := *r.fct
		cfg.Check = check
		fr, err = RunFCT(cfg)
	}
	if after != nil {
		runtime.ReadMemStats(after)
	}
	switch {
	case err != nil:
		return goldenResult{}, fmt.Errorf("%s: %w", r.name, err)
	case ir != nil:
		return goldenResult{events: ir.Events, drops: ir.Drops, timeouts: ir.Timeouts,
			norm: ir.GoodputFraction, rounds: ir.CompletedRounds}, nil
	case r.fct.CollectQueues && (len(fr.QueueCDFs) == 0 || len(fr.ImbalanceCDF) == 0):
		return goldenResult{}, fmt.Errorf("%s: samplers collected nothing; the fingerprint proves nothing", r.name)
	}
	return goldenResult{events: fr.Events, drops: fr.Drops, retx: fr.Retransmits,
		timeouts: fr.Timeouts, norm: fr.NormFCT, flows: fctFingerprint(fr)}, nil
}

// goldenRows are the paper's figure cells on the testbed and the scale
// sweep's cells. Every FCT row collects its flows. A row named /pN or
// ParallelN runs on N partition domains, each engine on its own goroutine. A
// scale cell's topology is what ScaleConfig{Leaves: {leaves}, AccessGbps:
// {gbps}}.Configs()[0] expands to: 4 hosts per leaf, 4 spines, 2 links per
// spine, fabric at the access rate, ECMP.
func goldenRows() []goldenRow {
	const ms = time.Millisecond
	fct := func(topo Topology, scheme Scheme, dur time.Duration, maxFlows int, seed uint64, parallel int) *FCTConfig {
		return &FCTConfig{Topology: topo, Scheme: scheme, Workload: WorkloadEnterprise, Load: 0.6,
			Duration: dur, MaxFlows: maxFlows, Transport: TransportConfig{MinRTO: 10 * ms}, Seed: seed,
			Parallel: parallel, CollectFlows: true}
	}
	scale := func(leaves int, gbps float64) Topology {
		return Topology{Leaves: leaves, Spines: 4, HostsPerLeaf: 4, LinksPerSpine: 2,
			AccessGbps: gbps, FabricGbps: gbps}
	}
	failed := benchTopo()
	failed.FailedLinks = [][3]int{{1, 1, 1}}
	fig12 := fct(benchTopo(), SchemeCONGA, 40*ms, 400, 7, 0)
	fig12.CollectQueues, fig12.CollectImbalance = true, true
	return []goldenRow{
		{name: "Fig09Enterprise", fct: fct(benchTopo(), SchemeCONGA, 20*ms, 250, 1, 0),
			want: goldenResult{events: 3641193, drops: 2061, retx: 16840, timeouts: 2, norm: 1.912444021871854,
				flows: 0xfb2cd4b160089510},
			mallocs: 5248},
		{name: "Fig09EnterpriseMPTCP", fct: fct(benchTopo(), SchemeMPTCPMarker, 20*ms, 250, 1, 0),
			want: goldenResult{events: 3648584, drops: 23943, retx: 35888, timeouts: 74, norm: 2.5715703831641163,
				flows: 0xbf7f522e05016fe6},
			mallocs: 10464},
		{name: "Fig11LinkFailure", fct: fct(failed, SchemeCONGA, 20*ms, 250, 1, 0),
			want: goldenResult{events: 3650017, drops: 2022, retx: 16778, timeouts: 1, norm: 2.0966610467882414,
				flows: 0x1f3d7c336842afa6},
			mallocs: 9073},
		{name: "Fig13Incast",
			incast: &IncastConfig{Topology: benchTopo(), Scheme: SchemeCONGA,
				Transport: TransportConfig{MinRTO: ms},
				Fanout:    8, RequestBytes: 2 << 20, Rounds: 2, Seed: 1},
			want:    goldenResult{events: 1058126, norm: 0.9557652232862587, rounds: 2},
			mallocs: 1591},
		// The fingerprints of the rows from here to Fig12/p1, and of
		// Scale64/p1 and /p2, were recorded from the discrete
		// transmit→txDone→deliver link before the virtual-time link claim
		// replaced it (Fig09MPTCP's when MPTCP joined the shared run
		// pipeline): the link model must reproduce every flow completion,
		// drop, retransmit and sampled CDF of those runs.
		{name: "Fig09/p1", fct: fct(benchTopo(), SchemeCONGA, 10*ms, 150, 7, 0), linkModel: true,
			want: goldenResult{events: 2390573, drops: 1053, retx: 6414, norm: 2.0616869845958354,
				flows: 0xc9bad4369451c472},
			mallocs: 3505},
		{name: "Fig09/p2", fct: fct(benchTopo(), SchemeCONGA, 10*ms, 150, 7, 2), linkModel: true,
			want: goldenResult{events: 2244761, drops: 1196, retx: 6128, norm: 1.8501986638229373,
				flows: 0x6e927c5dccb5e181},
			mallocs: 5455},
		{name: "Fig09MPTCP/p1", fct: fct(benchTopo(), SchemeMPTCPMarker, 10*ms, 150, 7, 0), linkModel: true,
			want: goldenResult{events: 2498307, drops: 10681, retx: 22920, timeouts: 10, norm: 2.3454791276130007,
				flows: 0x54d2c47c19f71aa4},
			mallocs: 8825},
		{name: "Fig11/p1", fct: fct(failed, SchemeCONGA, 10*ms, 150, 11, 0), linkModel: true,
			want: goldenResult{events: 1121117, drops: 1990, retx: 11929, timeouts: 3, norm: 2.4975175352567356,
				flows: 0xc4df7aff834d5489},
			mallocs: 3925},
		// Figure 12's queue and imbalance samplers read link counters
		// mid-run; they need one engine.
		{name: "Fig12/p1", fct: fig12, linkModel: true,
			want: goldenResult{events: 4008700, drops: 1947, retx: 12345, timeouts: 2, norm: 3.557045297770783,
				flows: 0x1dc067fe99b32cc1},
			mallocs: 7695},
		{name: "Scale64Leaves40G", fct: fct(scale(64, 40), SchemeECMP, 10*ms, 2000, 1, 0), long: true,
			want: goldenResult{events: 11659640, drops: 6910, retx: 31135, timeouts: 3, norm: 2.1039252665928054,
				flows: 0xfd3b115b0d96acdc},
			mallocs: 43379},
		{name: "Scale64/p1", fct: fct(scale(64, 40), SchemeECMP, 10*ms, 600, 3, 0), long: true, linkModel: true,
			want: goldenResult{events: 6209414, norm: 1.2434420644138062,
				flows: 0xadd76d3276e8ece4},
			mallocs: 17299},
		{name: "Scale64/p2", fct: fct(scale(64, 40), SchemeECMP, 10*ms, 600, 3, 2), long: true, linkModel: true,
			want: goldenResult{events: 6076323, norm: 1.266317804320021,
				flows: 0x57c2c57aeeec14a3},
			mallocs: 20609},
		{name: "Scale128Leaves40G", fct: fct(scale(128, 40), SchemeECMP, 10*ms, 2000, 1, 0), long: true,
			want: goldenResult{events: 13275525, drops: 1241, retx: 8665, norm: 1.5026398260245148,
				flows: 0x13365e313b92304},
			mallocs: 44488},
		{name: "Scale256Leaves40G", fct: fct(scale(256, 40), SchemeECMP, 10*ms, 2000, 1, 0), long: true,
			want: goldenResult{events: 12297106, drops: 937, retx: 10868, norm: 1.2417476269005612,
				flows: 0xd26dd4e8357e557f},
			mallocs: 57803},
		{name: "Scale256Leaves100G", fct: fct(scale(256, 100), SchemeECMP, 10*ms, 2000, 1, 0), long: true,
			want: goldenResult{events: 12311411, drops: 1267, retx: 8931, norm: 1.2298338424886623,
				flows: 0xdded17adee2321ee},
			mallocs: 59704},
		{name: "Scale256Leaves40GParallel2", fct: fct(scale(256, 40), SchemeECMP, 10*ms, 2000, 1, 2), long: true,
			want: goldenResult{events: 12196979, drops: 978, retx: 10695, norm: 1.2499963250302073,
				flows: 0x47117bc67d82ab4c},
			mallocs: 62783},
		{name: "Scale256Leaves40GParallel4", fct: fct(scale(256, 40), SchemeECMP, 10*ms, 2000, 1, 4), long: true,
			want: goldenResult{events: 12200775, drops: 977, retx: 10681, norm: 1.2499732838500441,
				flows: 0x86cff50216ad4657},
			mallocs: 64718},
		{name: "Scale256Leaves40GParallel8", fct: fct(scale(256, 40), SchemeECMP, 10*ms, 2000, 1, 8), long: true,
			want: goldenResult{events: 12208743, drops: 977, retx: 10681, norm: 1.2499661599131278,
				flows: 0xf99d7f5ed60fca0f},
			mallocs: 66937},
	}
}

// The golden table is the determinism contract, one table of pinned
// results run by two tests: TestDeterminismGolden takes the seed-1 rows,
// TestLinkModelGolden the link-model rows. Every row's events, losses,
// completion figures and per-flow fingerprint equal the recorded constants
// exactly, at any scheduling. Pass 1 runs the rows four at a time under the
// run audit (Check), so neither concurrency nor auditing may reach a result.
// Pass 2 runs them one after another on one processor and also bounds each
// run's allocations at 10 % over the recorded count (headroom for the odd
// malloc from outside the measured code). A change that moves any of these
// numbers must edit the constants here, in the same diff. The /p2 and
// Parallel rows go with the partitioned engine (ROADMAP item 1 step 2).
func TestDeterminismGolden(t *testing.T) { testGolden(t, false) }

func TestLinkModelGolden(t *testing.T) { testGolden(t, true) }

// testGolden runs the table's rows whose linkModel flag equals linkModel.
func testGolden(t *testing.T, linkModel bool) {
	var rows []goldenRow
	skipped := 0
	for _, r := range goldenRows() {
		switch {
		case r.linkModel != linkModel:
		case r.long && testing.Short():
			skipped++
		default:
			rows = append(rows, r)
		}
	}
	if skipped > 0 {
		t.Logf("-short: %d scale rows skipped; plain go test runs them", skipped)
	}

	got, err := runner.Map(4, rows, func(r goldenRow) (goldenResult, error) { return r.run(true, nil) })
	if err != nil {
		t.Fatalf("pass 1 (4 workers, Check): %v", err)
	}
	for i, r := range rows {
		if got[i] != r.want {
			t.Errorf("%s, pass 1 (4 workers, Check):\n got %v\nwant %v", r.name, got[i], r.want)
		}
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	for _, r := range rows {
		runtime.GC()
		runtime.ReadMemStats(&before)
		res, err := r.run(false, &after)
		if err != nil {
			t.Fatalf("pass 2 (one processor): %v", err)
		}
		if res != r.want {
			t.Errorf("%s, pass 2 (one processor):\n got %v\nwant %v", r.name, res, r.want)
		}
		if mallocs := after.Mallocs - before.Mallocs; mallocs*10 > r.mallocs*11 {
			t.Errorf("%s, pass 2 (one processor): %d mallocs, ceiling %d (recorded %d + 10 %%)",
				r.name, mallocs, r.mallocs*11/10, r.mallocs)
		}
	}
}
