package conga

import (
	"runtime"
	"testing"
	"time"

	"conga/internal/runner"
)

// benchTopo is the small 64-host testbed the figure cells below and the
// link-model goldens run on: it exercises every code path of an FCT, Incast
// or HDFS run in well under a second, not paper-scale statistics.
func benchTopo() Topology {
	return Topology{Leaves: 2, Spines: 2, HostsPerLeaf: 8, LinksPerSpine: 2,
		AccessGbps: 10, FabricGbps: 20}
}

// goldenResult is what a determinism row pins: the executed-event count and
// the loss and completion figures. For an Incast row norm holds
// GoodputFraction and rounds CompletedRounds; an FCT row's norm is NormFCT.
type goldenResult struct {
	events, drops, retx, timeouts uint64
	norm                          float64
	rounds                        int
}

// goldenRow is one simulation cell (exactly one of fct and incast is set)
// with its pinned result and the Mallocs its run made at one processor,
// after a warm-up run, when the constants were recorded.
type goldenRow struct {
	name    string
	fct     *FCTConfig
	incast  *IncastConfig
	long    bool // over 1 s: skipped under -short
	want    goldenResult
	mallocs uint64
}

// run executes the row's cell, audited by the Check invariants when check is
// set (an audit failure is the run's error).
func (r goldenRow) run(check bool) (goldenResult, error) {
	if r.incast != nil {
		cfg := *r.incast
		cfg.Check = check
		res, err := RunIncast(cfg)
		if err != nil {
			return goldenResult{}, err
		}
		return goldenResult{events: res.Events, drops: res.Drops, timeouts: res.Timeouts,
			norm: res.GoodputFraction, rounds: res.CompletedRounds}, nil
	}
	cfg := *r.fct
	cfg.Check = check
	res, err := RunFCT(cfg)
	if err != nil {
		return goldenResult{}, err
	}
	return goldenResult{events: res.Events, drops: res.Drops, retx: res.Retransmits,
		timeouts: res.Timeouts, norm: res.NormFCT}, nil
}

// goldenRows are figure cells on the testbed and the scale sweep's cells,
// all at seed 1. A scale cell is what ScaleConfig{Leaves: {leaves},
// AccessGbps: {gbps}, MaxFlows: 2000, Parallel: parallel}.Configs()[0]
// expands to: 4 hosts per leaf, 4 spines, 2 links per spine, fabric at the
// access rate.
func goldenRows() []goldenRow {
	transport := TransportConfig{MinRTO: 10 * time.Millisecond}
	scale := func(leaves int, gbps float64, parallel int) *FCTConfig {
		return &FCTConfig{Topology: Topology{Leaves: leaves, Spines: 4, HostsPerLeaf: 4, LinksPerSpine: 2,
			AccessGbps: gbps, FabricGbps: gbps}, Scheme: SchemeECMP, Workload: WorkloadEnterprise,
			Load: 0.6, Duration: 10 * time.Millisecond, MaxFlows: 2000, Transport: transport, Seed: 1,
			Parallel: parallel}
	}
	return []goldenRow{
		{name: "Fig09Enterprise",
			fct: &FCTConfig{Topology: benchTopo(), Scheme: SchemeCONGA, Workload: WorkloadEnterprise,
				Load: 0.6, Duration: 20 * time.Millisecond, MaxFlows: 250, Transport: transport, Seed: 1},
			want:    goldenResult{events: 3641193, drops: 2061, retx: 16840, timeouts: 2, norm: 1.912444021871854},
			mallocs: 5248},
		{name: "Fig09EnterpriseMPTCP",
			fct: &FCTConfig{Topology: benchTopo(), Scheme: SchemeMPTCPMarker, Workload: WorkloadEnterprise,
				Load: 0.6, Duration: 20 * time.Millisecond, MaxFlows: 250, Transport: transport, Seed: 1},
			want:    goldenResult{events: 3648584, drops: 23943, retx: 35888, timeouts: 74, norm: 2.5715703831641163},
			mallocs: 10464},
		{name: "Fig11LinkFailure",
			fct: &FCTConfig{Topology: Topology{Leaves: 2, Spines: 2, HostsPerLeaf: 8, LinksPerSpine: 2,
				AccessGbps: 10, FabricGbps: 20, FailedLinks: [][3]int{{1, 1, 1}}},
				Scheme: SchemeCONGA, Workload: WorkloadEnterprise,
				Load: 0.6, Duration: 20 * time.Millisecond, MaxFlows: 250, Transport: transport, Seed: 1},
			want:    goldenResult{events: 3650017, drops: 2022, retx: 16778, timeouts: 1, norm: 2.0966610467882414},
			mallocs: 9073},
		{name: "Fig13Incast",
			incast: &IncastConfig{Topology: benchTopo(), Scheme: SchemeCONGA,
				Transport: TransportConfig{MinRTO: time.Millisecond},
				Fanout:    8, RequestBytes: 2 << 20, Rounds: 2, Seed: 1},
			want:    goldenResult{events: 1058126, norm: 0.9557652232862587, rounds: 2},
			mallocs: 1591},
		{name: "Scale64Leaves40G", fct: scale(64, 40, 0), long: true,
			want:    goldenResult{events: 11659640, drops: 6910, retx: 31135, timeouts: 3, norm: 2.1039252665928054},
			mallocs: 43379},
		{name: "Scale128Leaves40G", fct: scale(128, 40, 0), long: true,
			want:    goldenResult{events: 13275525, drops: 1241, retx: 8665, norm: 1.5026398260245148},
			mallocs: 44488},
		{name: "Scale256Leaves40G", fct: scale(256, 40, 0), long: true,
			want:    goldenResult{events: 12297106, drops: 937, retx: 10868, norm: 1.2417476269005612},
			mallocs: 57803},
		{name: "Scale256Leaves100G", fct: scale(256, 100, 0), long: true,
			want:    goldenResult{events: 12311411, drops: 1267, retx: 8931, norm: 1.2298338424886623},
			mallocs: 59704},
		// The space-parallel rows: each domain count has its own pinned
		// result. They go with the partitioned engine (ROADMAP item 1
		// step 2).
		{name: "Scale256Leaves40GParallel2", fct: scale(256, 40, 2), long: true,
			want:    goldenResult{events: 12196979, drops: 978, retx: 10695, norm: 1.2499963250302073},
			mallocs: 62783},
		{name: "Scale256Leaves40GParallel4", fct: scale(256, 40, 4), long: true,
			want:    goldenResult{events: 12200775, drops: 977, retx: 10681, norm: 1.2499732838500441},
			mallocs: 64718},
		{name: "Scale256Leaves40GParallel8", fct: scale(256, 40, 8), long: true,
			want:    goldenResult{events: 12208743, drops: 977, retx: 10681, norm: 1.2499661599131278},
			mallocs: 66937},
	}
}

// TestDeterminismGolden is the determinism contract: every row's events,
// losses and completion figures equal the recorded constants exactly, at
// any scheduling. Pass 1 runs the rows four at a time under the run audit
// (Check), so neither concurrency nor auditing may reach a result. Pass 2
// runs them one after another on one processor and also bounds each run's
// allocations at 10 % over the recorded count (headroom for the odd
// malloc from outside the measured code). A change that moves any of these
// numbers must edit the constants here, in the same diff.
func TestDeterminismGolden(t *testing.T) {
	var rows []goldenRow
	for _, r := range goldenRows() {
		if r.long && testing.Short() {
			continue
		}
		rows = append(rows, r)
	}
	if testing.Short() {
		t.Logf("-short: %d rows over 1 s skipped", len(goldenRows())-len(rows))
	}

	got, err := runner.Map(4, rows, func(r goldenRow) (goldenResult, error) { return r.run(true) })
	if err != nil {
		t.Fatalf("pass 1 (4 workers, Check): %v", err)
	}
	for i, r := range rows {
		if got[i] != r.want {
			t.Errorf("%s, pass 1 (4 workers, Check):\n got %+v\nwant %+v", r.name, got[i], r.want)
		}
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	for _, r := range rows {
		runtime.GC()
		runtime.ReadMemStats(&before)
		res, err := r.run(false)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s, pass 2 (one processor): %v", r.name, err)
		}
		if res != r.want {
			t.Errorf("%s, pass 2 (one processor):\n got %+v\nwant %+v", r.name, res, r.want)
		}
		if mallocs := after.Mallocs - before.Mallocs; mallocs*10 > r.mallocs*11 {
			t.Errorf("%s, pass 2 (one processor): %d mallocs, ceiling %d (recorded %d + 10 %%)",
				r.name, mallocs, r.mallocs*11/10, r.mallocs)
		}
	}
}
