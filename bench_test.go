package conga

// One benchmark per paper artifact: each regenerates (a scaled-down
// instance of) the corresponding table or figure and reports domain
// metrics alongside ns/op. cmd/congabench runs the full-size versions;
// these exist so `go test -bench` exercises every experiment path and
// gives a stable cost baseline.

import (
	"testing"
	"time"

	"conga/internal/anarchy"
	"conga/internal/sim"
	"conga/internal/stochmodel"
	"conga/internal/traceanalysis"
	"conga/internal/workload"
)

// benchTopo is deliberately small: benchmarks measure simulator cost and
// exercise every code path, not paper-scale statistics.
func benchTopo() Topology {
	return Topology{Leaves: 2, Spines: 2, HostsPerLeaf: 8, LinksPerSpine: 2,
		AccessGbps: 10, FabricGbps: 20}
}

// BenchmarkEngineRaw is a pure schedule/run loop on the bare event engine —
// no fabric, no transport — so engine-level regressions (heap cost, event
// allocation) are visible in isolation from the packet model.
func BenchmarkEngineRaw(b *testing.B) {
	b.ReportAllocs()
	eng := sim.New()
	fn := func(sim.Time) {}
	for i := 0; i < b.N; i++ {
		base := eng.Now()
		// 64 events over 8 distinct timestamps: exercises both heap ordering
		// and the same-time insertion-order tie-break.
		for j := 0; j < 64; j++ {
			eng.At(base+sim.Time(j%8), fn)
		}
		eng.Run(sim.MaxTime)
	}
	b.ReportMetric(64, "events/op")
}

// benchIdleFabric measures the cost of pure fabric housekeeping: a network
// is built and the engine runs simulated time with zero flows, so the only
// work is the periodic DRE decay and flowlet sweep tickers. With dirty-list
// tickers this cost must not scale with the link count or flowlet-table
// size; the sub-benchmarks sweep the fabric size to make that visible.
func benchIdleFabric(b *testing.B, leaves int) {
	b.Helper()
	b.ReportAllocs()
	eng := sim.New()
	topo := Topology{Leaves: leaves, Spines: 2, HostsPerLeaf: 2, LinksPerSpine: 2,
		AccessGbps: 10, FabricGbps: 40}
	if _, err := topo.build([]*sim.Engine{eng}, SchemeCONGA, DefaultParams(), nil, 1, nil); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// 10 ms of idle fabric: 500 DRE decay periods and 20 flowlet sweeps.
		eng.Run(eng.Now() + 10*sim.Millisecond)
	}
}

// BenchmarkIdleFabric2Leaves is the baseline-size idle fabric (16 fabric
// links, 2 flowlet tables).
func BenchmarkIdleFabric2Leaves(b *testing.B) { benchIdleFabric(b, 2) }

// BenchmarkIdleFabric8Leaves has 4× the links and tables of the baseline.
func BenchmarkIdleFabric8Leaves(b *testing.B) { benchIdleFabric(b, 8) }

// BenchmarkIdleFabric32Leaves has 16× the links and tables of the baseline.
func BenchmarkIdleFabric32Leaves(b *testing.B) { benchIdleFabric(b, 32) }

func benchFCT(b *testing.B, scheme Scheme, w Workload, load float64, fail bool) {
	b.Helper()
	b.ReportAllocs()
	topo := benchTopo()
	if fail {
		topo.FailedLinks = [][3]int{{1, 1, 1}}
	}
	var events uint64
	var norm float64
	for i := 0; i < b.N; i++ {
		res, err := RunFCT(FCTConfig{
			Topology:  topo,
			Scheme:    scheme,
			Workload:  w,
			Load:      load,
			Duration:  20 * time.Millisecond,
			MaxFlows:  250,
			Transport: TransportConfig{MinRTO: 10 * time.Millisecond},
			Seed:      uint64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		events += res.Events
		norm += res.NormFCT
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
	b.ReportMetric(norm/float64(b.N), "normFCT")
}

// benchScale runs one cell of the large-fabric ScaleConfig sweep. These
// are the PR 6 scale proof: with the allocation-free flow lifecycle,
// allocs/op must stay flat (warm-up only) as the fabric grows from 64 to
// 256 leaves — steady-state work recycles through the per-engine pools.
func benchScale(b *testing.B, leaves int, accessGbps float64, maxFlows int) {
	b.Helper()
	benchScaleP(b, leaves, accessGbps, maxFlows, 1)
}

// benchScaleP is benchScale with a space-parallel domain count: the same
// sweep cell executed by sim.ParallelEngine across `parallel` worker
// goroutines. ns/op against the sequential cell is the speedup the PR 7
// tentpole claims; events/op is deterministic per worker count and gated
// exactly by tools/benchguard.
func benchScaleP(b *testing.B, leaves int, accessGbps float64, maxFlows, parallel int) {
	b.Helper()
	b.ReportAllocs()
	// Take the cell from the sweep's own expansion so the benchmark and
	// `congabench scale` measure identical configurations.
	cfg := ScaleConfig{
		Leaves:     []int{leaves},
		AccessGbps: []float64{accessGbps},
		MaxFlows:   maxFlows,
		Parallel:   parallel,
	}.Configs()[0]
	var events uint64
	var norm float64
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		res, err := RunFCT(cfg)
		if err != nil {
			b.Fatal(err)
		}
		events += res.Events
		norm += res.NormFCT
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
	b.ReportMetric(norm/float64(b.N), "normFCT")
}

// BenchmarkScale64Leaves40G is the smallest sweep cell: 256 hosts at 40G.
func BenchmarkScale64Leaves40G(b *testing.B) { benchScale(b, 64, 40, 2000) }

// BenchmarkScale128Leaves40G doubles the fabric: 512 hosts at 40G.
func BenchmarkScale128Leaves40G(b *testing.B) { benchScale(b, 128, 40, 2000) }

// BenchmarkScale256Leaves40G is the largest 40G cell: 1024 hosts.
func BenchmarkScale256Leaves40G(b *testing.B) { benchScale(b, 256, 40, 2000) }

// BenchmarkScale256Leaves100G is the largest cell at 100G access/fabric.
func BenchmarkScale256Leaves100G(b *testing.B) { benchScale(b, 256, 100, 2000) }

// BenchmarkScale256Leaves40GParallel{2,4,8} run the largest 40G cell
// space-parallel. Compare ns/op with BenchmarkScale256Leaves40G for the
// speedup; each worker count has its own deterministic events/op.
func BenchmarkScale256Leaves40GParallel2(b *testing.B) { benchScaleP(b, 256, 40, 2000, 2) }
func BenchmarkScale256Leaves40GParallel4(b *testing.B) { benchScaleP(b, 256, 40, 2000, 4) }
func BenchmarkScale256Leaves40GParallel8(b *testing.B) { benchScaleP(b, 256, 40, 2000, 8) }

// BenchmarkFig02Asymmetry regenerates the Figure 2 scenario (ECMP vs local
// vs CONGA under capacity asymmetry).
func BenchmarkFig02Asymmetry(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := RunFigure2(SchemeCONGA, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.TotalGbps, "Gbps")
	}
}

// BenchmarkFig03TrafficMatrix regenerates the Figure 3 scenario.
func BenchmarkFig03TrafficMatrix(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunFigure3(SchemeCONGA, true, uint64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig05Flowlets regenerates the Figure 5 flowlet-size analysis.
func BenchmarkFig05Flowlets(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr, err := traceanalysis.Generate(traceanalysis.GenConfig{
			Flows:         1000,
			Dist:          workload.Enterprise(),
			LinkRateBps:   10e9,
			BurstBytes:    64 << 10,
			MeanRateBps:   1e9,
			ArrivalWindow: 20 * sim.Millisecond,
			Seed:          uint64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, gap := range []sim.Time{250 * sim.Millisecond, 500 * sim.Microsecond, 100 * sim.Microsecond} {
			sizes := tr.Flowletize(gap)
			traceanalysis.MedianBytesSize(sizes)
		}
	}
}

// BenchmarkFig08Workloads regenerates the Figure 8 distribution statistics.
func BenchmarkFig08Workloads(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, w := range []Workload{WorkloadEnterprise, WorkloadDataMining} {
			e := w.Dist().(*workload.Empirical)
			_ = e.BytesFraction(35e6)
			_ = e.CV()
		}
	}
}

// BenchmarkFig09Enterprise regenerates one Figure 9 cell (CONGA at 60%).
func BenchmarkFig09Enterprise(b *testing.B) {
	benchFCT(b, SchemeCONGA, WorkloadEnterprise, 0.6, false)
}

// BenchmarkFig09EnterpriseECMP is the ECMP baseline cell of Figure 9.
func BenchmarkFig09EnterpriseECMP(b *testing.B) {
	benchFCT(b, SchemeECMP, WorkloadEnterprise, 0.6, false)
}

// BenchmarkFig09EnterpriseMPTCP is the MPTCP cell of Figure 9.
func BenchmarkFig09EnterpriseMPTCP(b *testing.B) {
	benchFCT(b, SchemeMPTCPMarker, WorkloadEnterprise, 0.6, false)
}

// BenchmarkFig10DataMining regenerates one Figure 10 cell.
func BenchmarkFig10DataMining(b *testing.B) {
	benchFCT(b, SchemeCONGA, WorkloadDataMining, 0.6, false)
}

// BenchmarkFig11LinkFailure regenerates one Figure 11 cell (CONGA at 60%
// with the failed link).
func BenchmarkFig11LinkFailure(b *testing.B) {
	benchFCT(b, SchemeCONGA, WorkloadEnterprise, 0.6, true)
}

// BenchmarkFig11LinkFailureECMP is Figure 11's ECMP series.
func BenchmarkFig11LinkFailureECMP(b *testing.B) {
	benchFCT(b, SchemeECMP, WorkloadEnterprise, 0.6, true)
}

// BenchmarkFig12Imbalance regenerates the Figure 12 imbalance CDF.
func BenchmarkFig12Imbalance(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := RunFCT(FCTConfig{
			Topology:         benchTopo(),
			Scheme:           SchemeCONGA,
			Workload:         WorkloadEnterprise,
			Load:             0.6,
			Duration:         50 * time.Millisecond,
			MaxFlows:         400,
			Transport:        TransportConfig{MinRTO: 10 * time.Millisecond},
			CollectImbalance: true,
			Seed:             uint64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.ImbalanceMean, "imbalance")
	}
}

// BenchmarkFig13Incast regenerates one Figure 13 cell (fanout 8, TCP).
func BenchmarkFig13Incast(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := RunIncast(IncastConfig{
			Topology:     benchTopo(),
			Scheme:       SchemeCONGA,
			Transport:    TransportConfig{MinRTO: time.Millisecond},
			Fanout:       8,
			RequestBytes: 2 << 20,
			Rounds:       2,
			Seed:         uint64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.GoodputFraction*100, "goodput%")
	}
}

// BenchmarkFig13IncastMPTCP is Figure 13's MPTCP series.
func BenchmarkFig13IncastMPTCP(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := RunIncast(IncastConfig{
			Topology:     benchTopo(),
			Scheme:       SchemeCONGA,
			Transport:    TransportConfig{Kind: TransportMPTCP, MinRTO: time.Millisecond},
			Fanout:       8,
			RequestBytes: 2 << 20,
			Rounds:       2,
			Seed:         uint64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.GoodputFraction*100, "goodput%")
	}
}

// BenchmarkFig14HDFS regenerates one Figure 14 trial.
func BenchmarkFig14HDFS(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := RunHDFS(HDFSConfig{
			Topology:       benchTopo(),
			Scheme:         SchemeCONGA,
			Transport:      TransportConfig{MinRTO: 10 * time.Millisecond},
			BytesPerWriter: 2 << 20,
			BlockBytes:     512 << 10,
			DiskMBps:       400,
			BackgroundLoad: 0.3,
			Seed:           uint64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.JobCompletion.Seconds(), "jobSec")
	}
}

// BenchmarkFig15LinkSpeeds regenerates one Figure 15 cell: 40G access.
func BenchmarkFig15LinkSpeeds(b *testing.B) {
	b.ReportAllocs()
	topo := Topology{Leaves: 2, Spines: 2, HostsPerLeaf: 2, LinksPerSpine: 1,
		AccessGbps: 40, FabricGbps: 40}
	for i := 0; i < b.N; i++ {
		_, err := RunFCT(FCTConfig{
			Topology:  topo,
			Scheme:    SchemeCONGA,
			Workload:  WorkloadWebSearch,
			Load:      0.5,
			Duration:  20 * time.Millisecond,
			MaxFlows:  250,
			Transport: TransportConfig{MinRTO: 10 * time.Millisecond},
			Seed:      uint64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig16MultiFailure regenerates the Figure 16 multi-failure
// queue-length comparison at reduced scale.
func BenchmarkFig16MultiFailure(b *testing.B) {
	b.ReportAllocs()
	topo := Topology{Leaves: 3, Spines: 2, HostsPerLeaf: 4, LinksPerSpine: 2,
		AccessGbps: 10, FabricGbps: 10,
		FailedLinks: [][3]int{{0, 1, 0}, {2, 0, 1}}}
	for i := 0; i < b.N; i++ {
		res, err := RunFCT(FCTConfig{
			Topology:      topo,
			Scheme:        SchemeCONGA,
			Workload:      WorkloadWebSearch,
			Load:          0.5,
			Duration:      20 * time.Millisecond,
			MaxFlows:      250,
			Transport:     TransportConfig{MinRTO: 10 * time.Millisecond},
			CollectQueues: true,
			Seed:          uint64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		_ = res.AvgQueueByLink
	}
}

// BenchmarkThm1PoA regenerates the §6.1 Price-of-Anarchy computation.
func BenchmarkThm1PoA(b *testing.B) {
	b.ReportAllocs()
	rng := sim.NewRand(42)
	for i := 0; i < b.N; i++ {
		in := anarchy.Uniform(3, 3, 0, []anarchy.User{
			{Src: 0, Dst: 1, Demand: 1 + rng.Float64()*5},
			{Src: 1, Dst: 2, Demand: 1 + rng.Float64()*5},
			{Src: 2, Dst: 0, Demand: 1 + rng.Float64()*5},
		})
		for l := 0; l < 3; l++ {
			for s := 0; s < 3; s++ {
				in.CapUp[l][s] = 1 + rng.Float64()*9
				in.CapDown[s][l] = 1 + rng.Float64()*9
			}
		}
		poa, err := in.PoA([]uint64{0, 1})
		if err != nil {
			b.Fatal(err)
		}
		if poa > 2.01 {
			b.Fatalf("PoA %v exceeds Theorem 1 bound", poa)
		}
		b.ReportMetric(poa, "PoA")
	}
}

// BenchmarkThm2Imbalance regenerates the §6.2 stochastic imbalance model.
func BenchmarkThm2Imbalance(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := stochmodel.Evaluate(stochmodel.Config{
			Links:   4,
			Lambda:  2000,
			Dist:    workload.WebSearch(),
			Horizon: 2,
			Runs:    50,
			Seed:    uint64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.MeanImbalance, "chi")
	}
}

// BenchmarkAblationGapMode compares the ASIC age-bit flowlet detection to
// exact timestamps (the DESIGN.md ablation).
func BenchmarkAblationGapMode(b *testing.B) {
	b.ReportAllocs()
	p := DefaultParams()
	p.GapMode = 1 // core.GapModeTimestamp
	for i := 0; i < b.N; i++ {
		_, err := RunFCT(FCTConfig{
			Topology:  benchTopo(),
			Scheme:    SchemeCONGA,
			Params:    &p,
			Workload:  WorkloadEnterprise,
			Load:      0.6,
			Duration:  20 * time.Millisecond,
			MaxFlows:  250,
			Transport: TransportConfig{MinRTO: 10 * time.Millisecond},
			Seed:      uint64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
