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
			want: goldenResult{events: 2904282, drops: 1869, retx: 13407, norm: 1.9469699424546574,
				flows: 0x5b497e33a816d245},
			mallocs: 5248},
		{name: "Fig09EnterpriseMPTCP", fct: fct(benchTopo(), SchemeMPTCPMarker, 20*ms, 250, 1, 0),
			want: goldenResult{events: 3060754, drops: 22487, retx: 38147, timeouts: 74, norm: 2.349452635327834,
				flows: 0xcc17727e345324ae},
			mallocs: 10464},
		{name: "Fig11LinkFailure", fct: fct(failed, SchemeCONGA, 20*ms, 250, 1, 0),
			want: goldenResult{events: 3036890, drops: 2977, retx: 18192, timeouts: 1, norm: 1.9866996308432396,
				flows: 0xf23c49004a9c91d4},
			mallocs: 9073},
		{name: "Fig13Incast",
			incast: &IncastConfig{Topology: benchTopo(), Scheme: SchemeCONGA,
				Transport: TransportConfig{MinRTO: ms},
				Fanout:    8, RequestBytes: 2 << 20, Rounds: 2, Seed: 1},
			want:    goldenResult{events: 1055246, norm: 0.9557652232862587, rounds: 2},
			mallocs: 1591},
		// The rows from here to Fig12/p1, and Scale64/p1 and /p2, were
		// first recorded from the discrete transmit→txDone→deliver link
		// before the virtual-time link claim replaced it, and re-pinned
		// when receivers moved to delayed ACKs; since then
		// TestTCPMatchesReference holds the link model to the reference's
		// discrete link hop by hop.
		{name: "Fig09/p1", fct: fct(benchTopo(), SchemeCONGA, 10*ms, 150, 7, 0), linkModel: true,
			want: goldenResult{events: 1984923, drops: 8199, retx: 16021, timeouts: 2, norm: 2.0661661451644115,
				flows: 0xdf7fe63b95be9f4},
			mallocs: 3505},
		{name: "Fig09/p2", fct: fct(benchTopo(), SchemeCONGA, 10*ms, 150, 7, 2), linkModel: true,
			want: goldenResult{events: 1792879, drops: 1134, retx: 5889, norm: 1.811172908481647,
				flows: 0x9987d8b47bf29a5f},
			mallocs: 56993},
		{name: "Fig09MPTCP/p1", fct: fct(benchTopo(), SchemeMPTCPMarker, 10*ms, 150, 7, 0), linkModel: true,
			want: goldenResult{events: 2141963, drops: 12430, retx: 27339, timeouts: 10, norm: 2.4859304190960656,
				flows: 0x88fbd63ea16e27cc},
			mallocs: 8825},
		{name: "Fig11/p1", fct: fct(failed, SchemeCONGA, 10*ms, 150, 11, 0), linkModel: true,
			want: goldenResult{events: 931837, drops: 2274, retx: 11858, timeouts: 2, norm: 2.5682311168353777,
				flows: 0xd71a2b5c2215989d},
			mallocs: 3925},
		// Figure 12's queue and imbalance samplers read link counters
		// mid-run; they need one engine.
		{name: "Fig12/p1", fct: fig12, linkModel: true,
			want: goldenResult{events: 3259506, drops: 2935, retx: 16742, timeouts: 3, norm: 3.279800511019497,
				flows: 0xb7db70317c989f03},
			mallocs: 7695},
		{name: "Scale64Leaves40G", fct: fct(scale(64, 40), SchemeECMP, 10*ms, 2000, 1, 0), long: true,
			want: goldenResult{events: 9665665, drops: 8212, retx: 31039, timeouts: 3, norm: 2.1035324345144013,
				flows: 0xb6642fb7d73c0a63},
			mallocs: 43379},
		{name: "Scale64/p1", fct: fct(scale(64, 40), SchemeECMP, 10*ms, 600, 3, 0), long: true, linkModel: true,
			want: goldenResult{events: 5169160, norm: 1.2427228165282376,
				flows: 0x38727a2011bb0b52},
			mallocs: 17299},
		{name: "Scale64/p2", fct: fct(scale(64, 40), SchemeECMP, 10*ms, 600, 3, 2), long: true, linkModel: true,
			want: goldenResult{events: 5048792, norm: 1.266071406689259,
				flows: 0x9a3b4dc23ae36564},
			mallocs: 71687},
		{name: "Scale128Leaves40G", fct: fct(scale(128, 40), SchemeECMP, 10*ms, 2000, 1, 0), long: true,
			want: goldenResult{events: 11109697, drops: 1661, retx: 9693, norm: 1.5064412245712488,
				flows: 0x7df72294b10300cc},
			mallocs: 44488},
		{name: "Scale256Leaves40G", fct: fct(scale(256, 40), SchemeECMP, 10*ms, 2000, 1, 0), long: true,
			want: goldenResult{events: 10204261, drops: 1105, retx: 10124, norm: 1.2389591338617112,
				flows: 0x6c8a0da702115c12},
			mallocs: 57803},
		{name: "Scale256Leaves100G", fct: fct(scale(256, 100), SchemeECMP, 10*ms, 2000, 1, 0), long: true,
			want: goldenResult{events: 10187587, drops: 1280, retx: 7287, norm: 1.2278543842841585,
				flows: 0xd993f3ef9ff59cb7},
			mallocs: 59704},
		{name: "Scale256Leaves40GParallel2", fct: fct(scale(256, 40), SchemeECMP, 10*ms, 2000, 1, 2), long: true,
			want: goldenResult{events: 10121216, drops: 1146, retx: 10546, norm: 1.2487473621779503,
				flows: 0x46368e425b303023},
			mallocs: 62783},
		{name: "Scale256Leaves40GParallel4", fct: fct(scale(256, 40), SchemeECMP, 10*ms, 2000, 1, 4), long: true,
			want: goldenResult{events: 10125162, drops: 1146, retx: 10546, norm: 1.248748884576302,
				flows: 0x5a4c9e83c0274a95},
			mallocs: 121040},
		{name: "Scale256Leaves40GParallel8", fct: fct(scale(256, 40), SchemeECMP, 10*ms, 2000, 1, 8), long: true,
			want: goldenResult{events: 10130288, drops: 1146, retx: 10546, norm: 1.2487474703264665,
				flows: 0x15cfa1841662f4ba},
			mallocs: 184638},
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
