package main

import (
	"fmt"
	"time"

	conga "conga"
	"conga/internal/anarchy"
	"conga/internal/sim"
	"conga/internal/stochmodel"
	"conga/internal/traceanalysis"
	"conga/internal/workload"
)

// fctTopo returns the experiment topology: the paper's testbed at full
// scale, or a 1/4-host, 1/10-rate version for -quick.
func fctTopo(quick bool) conga.Topology {
	if quick {
		// Half the testbed: same access speed (so flow durations and
		// concurrency match the paper), half the hosts, and halved LAG
		// members so the asymmetric-failure scenarios keep their shape.
		return conga.Topology{Leaves: 2, Spines: 2, HostsPerLeaf: 16, LinksPerSpine: 2,
			AccessGbps: 10, FabricGbps: 20}
	}
	return conga.Testbed()
}

func fctLoads(quick bool) []float64 {
	if quick {
		return []float64{0.3, 0.6}
	}
	return []float64{0.1, 0.3, 0.5, 0.7, 0.9}
}

func fctSchemes() []conga.Scheme {
	return []conga.Scheme{conga.SchemeECMP, conga.SchemeCONGAFlow, conga.SchemeCONGA, conga.SchemeMPTCPMarker}
}

func fctConfig(quick bool, s conga.Scheme, w conga.Workload, load float64) conga.FCTConfig {
	cfg := conga.FCTConfig{
		Topology:  fctTopo(quick),
		Scheme:    s,
		Workload:  w,
		Load:      load,
		Transport: conga.TransportConfig{MinRTO: 10 * time.Millisecond},
		Duration:  150 * time.Millisecond,
		MaxFlows:  3000,
		Seed:      1,
	}
	if quick {
		cfg.Duration = 80 * time.Millisecond
		cfg.MaxFlows = 800
	}
	// The data-mining workload's byte-carrying flows run for tens to
	// hundreds of ms, so steady-state contention needs a longer arrival
	// window than the enterprise workload does.
	if w == conga.WorkloadDataMining {
		cfg.Duration = 300 * time.Millisecond
		cfg.MaxFlows = 1200
		if quick {
			cfg.Duration = 150 * time.Millisecond
			cfg.MaxFlows = 500
		}
	}
	cfg.Telemetry = telemetryFor(fmt.Sprintf("%s_%s_load%02d",
		conga.SchemeName(s), w, int(load*100)))
	return cfg
}

// --- Figure 2 ---

func runFig2(quick bool) {
	fmt.Println("Scenario: L0→L1 overload; (S1,L1) path at half capacity (cf. 90/80/100 Gbps).")
	fmt.Printf("%-12s %10s %10s %10s %14s\n", "scheme", "spine0", "spine1", "total", "split s0:s1")
	for _, s := range []conga.Scheme{conga.SchemeECMP, conga.SchemeLocal, conga.SchemeWCMP, conga.SchemeCONGA} {
		r, err := conga.RunFigure2(s, 1)
		check(err)
		ratio := r.SpineGbps[0] / max(r.SpineGbps[1], 1e-9)
		fmt.Printf("%-12s %9.2fG %9.2fG %9.2fG %11.2f:1\n",
			r.Scheme, r.SpineGbps[0], r.SpineGbps[1], r.TotalGbps, ratio)
	}
	fmt.Println("Paper shape: CONGA ≈ full capacity with a 2:1 split; ECMP strands the fast path.")
}

// --- Figure 3 ---

func runFig3(quick bool) {
	fmt.Println("Scenario: L1→L2 split must react to L0→L2 traffic on the shared S0→L2 link.")
	fmt.Printf("%-12s %-22s %12s %12s\n", "scheme", "case", "L1 via S0", "L1 via S1")
	for _, s := range []conga.Scheme{conga.SchemeECMP, conga.SchemeCONGA} {
		for _, busy := range []bool{false, true} {
			r, err := conga.RunFigure3(s, busy, 1)
			check(err)
			label := "(a) L0→L2 idle"
			if busy {
				label = "(b) L0→L2 active"
			}
			fmt.Printf("%-12s %-22s %11.2fG %11.2fG\n",
				r.Scheme, label, r.LeafUplinkGbps[1][0], r.LeafUplinkGbps[1][1])
		}
	}
	fmt.Println("Paper shape: CONGA shifts L1's traffic off S0 when L0 loads it; ECMP cannot.")
}

// --- Figure 5 ---

func runFig5(quick bool) {
	flows := 5000
	if quick {
		flows = 800
	}
	tr, err := traceanalysis.Generate(traceanalysis.GenConfig{
		Flows:         flows,
		Dist:          workload.Enterprise(),
		LinkRateBps:   10e9,
		BurstBytes:    64 << 10,
		MeanRateBps:   1e9,
		ArrivalWindow: 50 * sim.Millisecond,
		Seed:          1,
	})
	check(err)
	gaps := []struct {
		name string
		gap  sim.Time
	}{
		{"Flow (250ms)", 250 * sim.Millisecond},
		{"Flowlet (500µs)", 500 * sim.Microsecond},
		{"Flowlet (100µs)", 100 * sim.Microsecond},
	}
	// bytesUpTo is the fraction of bytes carried by transfers of at most
	// size bytes.
	bytesUpTo := func(cdf [][2]float64, size float64) float64 {
		frac := 0.0
		for _, pt := range cdf {
			if pt[0] <= size {
				frac = pt[1]
			}
		}
		return frac
	}
	cdfs := make([][][2]float64, len(gaps))
	fmt.Printf("%-18s %10s %16s %20s\n", "granularity", "transfers", "median-by-bytes", "bytes in ≤1MB xfers")
	for i, g := range gaps {
		sizes := tr.Flowletize(g.gap)
		cdfs[i] = traceanalysis.BytesCDF(sizes)
		fmt.Printf("%-18s %10d %15.2gB %19.1f%%\n",
			g.name, len(sizes), float64(traceanalysis.MedianBytesSize(sizes)), bytesUpTo(cdfs[i], 1e6)*100)
	}
	fmt.Println("bytes CDF vs transfer size (the Figure 5 series):")
	fmt.Printf("%12s", "size ≤")
	for _, g := range gaps {
		fmt.Printf(" %17s", g.name)
	}
	fmt.Println()
	for _, size := range []float64{1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9} {
		fmt.Printf("%12.0e", size)
		for _, cdf := range cdfs {
			fmt.Printf(" %16.1f%%", bytesUpTo(cdf, size)*100)
		}
		fmt.Println()
	}
	med, maxC := tr.ConcurrencyStats(sim.Millisecond)
	fmt.Printf("concurrent flows per 1ms interval: median %d, max %d (§2.6.1: 130 / <300)\n", med, maxC)
	fmt.Println("Paper shape: ~2 orders of magnitude smaller byte-median at 500µs gaps than per-flow.")
}

// --- Figure 8 ---

func runFig8(quick bool) {
	for _, w := range []conga.Workload{conga.WorkloadEnterprise, conga.WorkloadDataMining} {
		e := w.Dist().(*workload.Empirical)
		fmt.Printf("%s: mean %.3g B, CV %.1f, bytes from flows ≤35MB: %.0f%%\n",
			e.Name(), e.Mean(), e.CV(), e.BytesFraction(35e6)*100)
		fmt.Printf("  %-12s", "size:")
		for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
			fmt.Printf(" %10.3g", e.Quantile(q))
		}
		fmt.Printf("\n  %-12s", "flow CDF:")
		for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
			fmt.Printf(" %10.2f", q)
		}
		fmt.Println()
	}
}

// --- Figures 9 and 10 ---

func runFCTFigure(quick bool, w conga.Workload) {
	loads := fctLoads(quick)
	schemes := fctSchemes()
	var cfgs []conga.FCTConfig
	for _, s := range schemes {
		for _, load := range loads {
			cfgs = append(cfgs, fctConfig(quick, s, w, load))
		}
	}
	// Section (a) streams: configs are scheme-major and RunFCTsStream emits
	// in config order, so each scheme's row prints the moment its last load
	// finishes, while later schemes are still simulating.
	results := map[string]map[float64]*conga.FCTResult{}
	fmt.Println("(a) overall average FCT, normalized to optimal:")
	printLoadHeader(loads, true)
	_, err := conga.RunFCTsStream(cfgs, func(i int, r *conga.FCTResult, err error) {
		if err != nil {
			return // surfaced via the returned error below
		}
		name := conga.SchemeName(schemes[i/len(loads)])
		if results[name] == nil {
			results[name] = map[float64]*conga.FCTResult{}
		}
		results[name][loads[i%len(loads)]] = r
		if i%len(loads) == len(loads)-1 {
			printSeriesRow(name, loads, results[name], func(r *conga.FCTResult) float64 { return r.NormFCT }, true)
		}
	})
	check(err)
	fmt.Println("(b) small flows (<100KB) avg FCT, normalized to ECMP:")
	printSeriesVsECMP(loads, results, func(r *conga.FCTResult) float64 { return float64(r.SmallAvgFCT) })
	fmt.Println("(c) large flows (>10MB) avg FCT, normalized to ECMP:")
	printSeriesVsECMP(loads, results, func(r *conga.FCTResult) float64 { return float64(r.LargeAvgFCT) })
	fmt.Println("completion counts (generated → completed within drain):")
	printSeries(loads, results, func(r *conga.FCTResult) float64 { return float64(r.Completed) }, false)
}

// perf toggles the events/s + wall tail; it goes on each sweep's primary
// table, not on the derived views of the same runs ((b), (c), counts).
func printLoadHeader(loads []float64, perf bool) {
	fmt.Printf("  %-12s", "load:")
	for _, l := range loads {
		fmt.Printf(" %8.0f%%", l*100)
	}
	if perf {
		fmt.Print(perfHeader())
	}
	fmt.Println()
}

func printSeriesRow(name string, loads []float64, series map[float64]*conga.FCTResult, metric func(*conga.FCTResult) float64, perf bool) {
	fmt.Printf("  %-12s", name)
	for _, l := range loads {
		fmt.Printf(" %9.2f", metric(series[l]))
	}
	if perf {
		var ev uint64
		var wall time.Duration
		for _, l := range loads {
			ev += series[l].Events
			wall += series[l].Wall
		}
		fmt.Print(perfCols(ev, wall))
	}
	fmt.Println()
}

func printSeries(loads []float64, results map[string]map[float64]*conga.FCTResult, metric func(*conga.FCTResult) float64, perf bool) {
	printLoadHeader(loads, perf)
	for _, name := range []string{"ecmp", "conga-flow", "conga", "mptcp"} {
		if series, ok := results[name]; ok {
			printSeriesRow(name, loads, series, metric, perf)
		}
	}
}

func printSeriesVsECMP(loads []float64, results map[string]map[float64]*conga.FCTResult, metric func(*conga.FCTResult) float64) {
	fmt.Printf("  %-12s", "load:")
	for _, l := range loads {
		fmt.Printf(" %8.0f%%", l*100)
	}
	fmt.Println()
	for _, name := range []string{"ecmp", "conga-flow", "conga", "mptcp"} {
		series, ok := results[name]
		if !ok {
			continue
		}
		fmt.Printf("  %-12s", name)
		for _, l := range loads {
			base := metric(results["ecmp"][l])
			v := 0.0
			if base > 0 {
				v = metric(series[l]) / base
			}
			fmt.Printf(" %9.2f", v)
		}
		fmt.Println()
	}
}

func runFig9(quick bool)  { runFCTFigure(quick, conga.WorkloadEnterprise) }
func runFig10(quick bool) { runFCTFigure(quick, conga.WorkloadDataMining) }

// --- Figure 11 ---

func runFig11(quick bool) {
	topo := fctTopo(quick)
	topo.FailedLinks = [][3]int{{1, 1, 1}} // one of the Leaf1↔Spine1 pair
	loads := []float64{0.1, 0.3, 0.5, 0.7}
	if quick {
		loads = []float64{0.3, 0.6}
	}
	schemes := fctSchemes()
	for _, w := range []conga.Workload{conga.WorkloadEnterprise, conga.WorkloadDataMining} {
		fmt.Printf("(%s) overall average FCT normalized to optimal, WITH link failure:\n", w)
		var cfgs []conga.FCTConfig
		for _, s := range schemes {
			for _, load := range loads {
				cfg := fctConfig(quick, s, w, load)
				cfg.Topology = topo
				cfgs = append(cfgs, cfg)
			}
		}
		rs, err := conga.RunFCTs(cfgs)
		check(err)
		results := map[string]map[float64]*conga.FCTResult{}
		for i, r := range rs {
			name := conga.SchemeName(schemes[i/len(loads)])
			if results[name] == nil {
				results[name] = map[float64]*conga.FCTResult{}
			}
			results[name][loads[i%len(loads)]] = r
		}
		printSeries(loads, results, func(r *conga.FCTResult) float64 { return r.NormFCT }, true)
	}

	fmt.Println("(c) hotspot queue occupancy CDF, data-mining at 60% load:")
	fmt.Printf("  %-12s %10s %10s %10s %10s%s\n", "scheme", "p50", "p90", "p99", "max", perfHeader())
	var qcfgs []conga.FCTConfig
	for _, s := range schemes {
		cfg := fctConfig(quick, s, conga.WorkloadDataMining, 0.6)
		cfg.Topology = topo
		cfg.CollectQueues = true
		qcfgs = append(qcfgs, cfg)
	}
	qrs, err := conga.RunFCTs(qcfgs)
	check(err)
	for i, s := range schemes {
		r := qrs[i]
		q := func(target float64) float64 {
			v := 0.0
			for _, pt := range r.HotspotQueueCDF {
				if pt[1] <= target {
					v = pt[0]
				}
			}
			return v / 1e6
		}
		maxq := 0.0
		if n := len(r.HotspotQueueCDF); n > 0 {
			maxq = r.HotspotQueueCDF[n-1][0] / 1e6
		}
		fmt.Printf("  %-12s %9.2fM %9.2fM %9.2fM %9.2fM%s\n",
			conga.SchemeName(s), q(0.5), q(0.9), q(0.99), maxq, perfCols(r.Events, r.Wall))
	}
	fmt.Println("Paper shape: ECMP collapses past 50% load; CONGA best, with far smaller hotspot queues.")
}

// --- Figure 12 ---

func runFig12(quick bool) {
	fmt.Println("Throughput imbalance (MAX−MIN)/AVG across leaf-0 uplinks, 10ms windows, 60% load:")
	for _, w := range []conga.Workload{conga.WorkloadEnterprise, conga.WorkloadDataMining} {
		fmt.Printf("  %s:\n", w)
		fmt.Printf("    %-12s %8s %8s %8s%s\n", "scheme", "mean", "p50", "p90", perfHeader())
		var cfgs []conga.FCTConfig
		for _, s := range fctSchemes() {
			cfg := fctConfig(quick, s, w, 0.6)
			cfg.CollectImbalance = true
			cfg.Duration = 200 * time.Millisecond // ≥20 imbalance windows
			cfg.MaxFlows *= 2
			cfgs = append(cfgs, cfg)
		}
		rs, err := conga.RunFCTs(cfgs)
		check(err)
		for i, s := range fctSchemes() {
			r := rs[i]
			p := func(q float64) float64 {
				v := 0.0
				for _, pt := range r.ImbalanceCDF {
					if pt[1] <= q {
						v = pt[0]
					}
				}
				return v
			}
			fmt.Printf("    %-12s %8.3f %8.3f %8.3f%s\n",
				conga.SchemeName(s), r.ImbalanceMean, p(0.5), p(0.9), perfCols(r.Events, r.Wall))
		}
	}
	fmt.Println("Paper shape: CONGA ≤ MPTCP ≪ ECMP imbalance.")
}

// --- Figure 13 ---

func runFig13(quick bool) {
	topo := fctTopo(quick)
	fanouts := []int{1, 4, 8, 16, 24, 32, 48, 63}
	reqBytes := int64(10 << 20)
	rounds := 4
	if quick {
		fanouts = []int{1, 4, 8, 14}
		reqBytes = 2 << 20
		rounds = 2
	}
	setups := []struct {
		name   string
		kind   conga.Transport
		minRTO time.Duration
	}{
		{"CONGA+TCP (200ms)", conga.TransportTCP, 200 * time.Millisecond},
		{"CONGA+TCP (1ms)", conga.TransportTCP, time.Millisecond},
		{"MPTCP (200ms)", conga.TransportMPTCP, 200 * time.Millisecond},
		{"MPTCP (1ms)", conga.TransportMPTCP, time.Millisecond},
	}
	// One flat batch across mtu×setup×fanout. Configs are row-major
	// (mtu, setup, fanout) and the streaming runner emits in config order,
	// so each table row prints as soon as its last fan-in finishes.
	mtus := []int{1500, 9000}
	type rowKey struct{ mtu, setup int }
	var cfgs []conga.IncastConfig
	var rowOf []rowKey
	var fanOf []int
	for mi, mtu := range mtus {
		for si, setup := range setups {
			for _, f := range fanouts {
				if f >= topo.Leaves*topo.HostsPerLeaf {
					continue
				}
				cfgs = append(cfgs, conga.IncastConfig{
					Topology:     topo,
					Scheme:       conga.SchemeCONGA,
					Transport:    conga.TransportConfig{Kind: setup.kind, MinRTO: setup.minRTO, MTU: mtu},
					Fanout:       f,
					RequestBytes: reqBytes,
					Rounds:       rounds,
					Timeout:      time.Duration(rounds) * 10 * time.Second,
					Telemetry:    telemetryFor(fmt.Sprintf("incast_%s_mtu%d_f%d", setup.kind, mtu, f)),
				})
				rowOf = append(rowOf, rowKey{mi, si})
				fanOf = append(fanOf, f)
			}
		}
	}
	vals := map[rowKey]map[int]float64{}
	type rowCost struct {
		ev   uint64
		wall time.Duration
	}
	cost := map[rowKey]*rowCost{}
	headerDone := -1
	_, err := conga.RunIncastsStream(cfgs, func(i int, r *conga.IncastResult, err error) {
		if err != nil {
			return // surfaced via the returned error below
		}
		k := rowOf[i]
		if vals[k] == nil {
			vals[k] = map[int]float64{}
			cost[k] = &rowCost{}
		}
		vals[k][fanOf[i]] = r.GoodputFraction
		cost[k].ev += r.Events
		cost[k].wall += r.Wall
		if i+1 < len(cfgs) && rowOf[i+1] == k {
			return // row not complete yet
		}
		if k.mtu != headerDone {
			fmt.Printf("MTU %d — goodput %% of access link vs fan-in:\n", mtus[k.mtu])
			fmt.Printf("  %-22s", "fanout:")
			for _, f := range fanouts {
				fmt.Printf(" %6d", f)
			}
			fmt.Print(perfHeader())
			fmt.Println()
			headerDone = k.mtu
		}
		fmt.Printf("  %-22s", setups[k.setup].name)
		for _, f := range fanouts {
			if v, ok := vals[k][f]; ok {
				fmt.Printf(" %5.0f%%", v*100)
			} else {
				fmt.Printf(" %6s", "-")
			}
		}
		fmt.Print(perfCols(cost[k].ev, cost[k].wall))
		fmt.Println()
	})
	check(err)
	fmt.Println("Paper shape: MPTCP collapses at high fan-in (worst with jumbo frames); CONGA+TCP stays high.")
}

// --- Figure 14 ---

func runFig14(quick bool) {
	trials := 10
	topo := conga.Topology{Leaves: 2, Spines: 2, HostsPerLeaf: 16, LinksPerSpine: 2,
		AccessGbps: 10, FabricGbps: 40}
	bytesPer := int64(8 << 20)
	if quick {
		trials = 3
		topo.HostsPerLeaf = 8
		bytesPer = 4 << 20
	}
	for _, failed := range []bool{false, true} {
		label := "(a) baseline topology"
		t := topo
		if failed {
			label = "(b) with link failure"
			t.FailedLinks = [][3]int{{1, 1, 1}}
		}
		fmt.Printf("%s — job completion times over %d trials (seconds):\n", label, trials)
		schemes := []conga.Scheme{conga.SchemeECMP, conga.SchemeCONGA, conga.SchemeMPTCPMarker}
		var cfgs []conga.HDFSConfig
		for _, s := range schemes {
			for trial := 0; trial < trials; trial++ {
				cfgs = append(cfgs, conga.HDFSConfig{
					Topology:       t,
					Scheme:         s,
					Transport:      conga.TransportConfig{MinRTO: 10 * time.Millisecond},
					BytesPerWriter: bytesPer,
					DiskMBps:       400,
					BackgroundLoad: 0.4,
					Seed:           uint64(trial + 1),
				})
			}
		}
		// Configs are scheme-major, so each scheme's row streams out as
		// soon as its last trial completes.
		secs := make([]float64, len(cfgs))
		evs := make([]uint64, len(cfgs))
		walls := make([]time.Duration, len(cfgs))
		_, err := conga.RunHDFSTrialsStream(cfgs, func(i int, r *conga.HDFSResult, err error) {
			if err != nil {
				return // surfaced via the returned error below
			}
			secs[i] = r.JobCompletion.Seconds()
			evs[i] = r.Events
			walls[i] = r.Wall
			if i%trials != trials-1 {
				return
			}
			s := i / trials
			fmt.Printf("  %-8s", conga.SchemeName(schemes[s]))
			var sum, worst float64
			var ev uint64
			var wall time.Duration
			for trial := 0; trial < trials; trial++ {
				sec := secs[s*trials+trial]
				sum += sec
				if sec > worst {
					worst = sec
				}
				ev += evs[s*trials+trial]
				wall += walls[s*trials+trial]
				fmt.Printf(" %6.2f", sec)
			}
			fmt.Printf("   | mean %.2f worst %.2f%s\n", sum/float64(trials), worst, perfCols(ev, wall))
		})
		check(err)
	}
	fmt.Println("Paper shape: failure ≈ doubles ECMP job times; CONGA nearly unaffected; MPTCP volatile.")
}

// --- Figure 15 ---

func runFig15(quick bool) {
	loads := []float64{0.3, 0.5, 0.7}
	type topoCase struct {
		name string
		topo conga.Topology
	}
	cases := []topoCase{
		{"10G access / 40G fabric", conga.Topology{Leaves: 2, Spines: 2, HostsPerLeaf: 16,
			LinksPerSpine: 1, AccessGbps: 10, FabricGbps: 40}},
		{"40G access / 40G fabric", conga.Topology{Leaves: 2, Spines: 2, HostsPerLeaf: 4,
			LinksPerSpine: 1, AccessGbps: 40, FabricGbps: 40}},
	}
	if quick {
		cases[0].topo.HostsPerLeaf = 8
		cases[1].topo.HostsPerLeaf = 2
	}
	for _, c := range cases {
		fmt.Printf("%s — web-search workload, CONGA FCT normalized to ECMP:\n", c.name)
		fmt.Printf("  %-8s", "load:")
		for _, l := range loads {
			fmt.Printf(" %7.0f%%", l*100)
		}
		fmt.Println()
		var cfgs []conga.FCTConfig
		for _, l := range loads {
			for _, s := range []conga.Scheme{conga.SchemeECMP, conga.SchemeCONGA} {
				cfg := fctConfig(quick, s, conga.WorkloadWebSearch, l)
				cfg.Topology = c.topo
				cfgs = append(cfgs, cfg)
			}
		}
		rs, err := conga.RunFCTs(cfgs)
		check(err)
		fmt.Printf("  %-8s", "conga")
		var ev uint64
		var wall time.Duration
		for i := range loads {
			base := float64(rs[2*i].AvgFCT)
			cng := float64(rs[2*i+1].AvgFCT)
			ev += rs[2*i].Events + rs[2*i+1].Events
			wall += rs[2*i].Wall + rs[2*i+1].Wall
			fmt.Printf(" %8.2f", cng/base)
		}
		fmt.Print(perfCols(ev, wall))
		fmt.Println()
	}
	fmt.Println("Paper shape: CONGA's win over ECMP is larger, and appears at lower load, when access ≈ fabric speed.")
}

// --- Figure 16 ---

func runFig16(quick bool) {
	// Scaled version of the paper's 288-port fabric: 6 leaves × 4 spines
	// with 2-member LAGs, sized so hosts can actually offer the target
	// load (bisection ≈ host capacity).
	topo := conga.Topology{Leaves: 6, Spines: 4, HostsPerLeaf: 4, LinksPerSpine: 2,
		AccessGbps: 10, FabricGbps: 5}
	// 9 deterministic pseudo-random failures, as in the paper's scenario.
	rng := sim.NewRand(2014)
	seen := map[[3]int]bool{}
	for len(topo.FailedLinks) < 9 {
		f := [3]int{rng.Intn(topo.Leaves), rng.Intn(topo.Spines), rng.Intn(topo.LinksPerSpine)}
		if !seen[f] {
			seen[f] = true
			topo.FailedLinks = append(topo.FailedLinks, f)
		}
	}
	fmt.Printf("6 leaves × 4 spines × 2 links, 9 failed links, web-search at 60%% load.\n")
	type agg struct {
		spineDown, leafUp float64
		ev                uint64
		wall              time.Duration
	}
	out := map[string]agg{}
	schemes := []conga.Scheme{conga.SchemeECMP, conga.SchemeCONGA}
	var cfgs []conga.FCTConfig
	for _, s := range schemes {
		cfg := fctConfig(quick, s, conga.WorkloadWebSearch, 0.6)
		cfg.Topology = topo
		cfg.CollectQueues = true
		cfgs = append(cfgs, cfg)
	}
	rs, err := conga.RunFCTs(cfgs)
	check(err)
	for i, s := range schemes {
		r := rs[i]
		var a agg
		var nd, nu int
		for name, q := range r.AvgQueueByLink {
			if name[0] == 's' { // spine→leaf downlinks are named "s<i>..."
				a.spineDown += q
				nd++
			} else {
				a.leafUp += q
				nu++
			}
		}
		a.spineDown /= float64(max(1, nd))
		a.leafUp /= float64(max(1, nu))
		a.ev, a.wall = r.Events, r.Wall
		out[conga.SchemeName(s)] = a
	}
	fmt.Printf("  %-8s %22s %22s%s\n", "scheme", "avg spine-downlink queue", "avg leaf-uplink queue", perfHeader())
	for _, name := range []string{"ecmp", "conga"} {
		fmt.Printf("  %-8s %21.0fB %21.0fB%s\n", name, out[name].spineDown, out[name].leafUp,
			perfCols(out[name].ev, out[name].wall))
	}
	if out["conga"].spineDown > 0 {
		fmt.Printf("  ECMP/CONGA spine-downlink queue ratio: %.1f×\n",
			out["ecmp"].spineDown/out["conga"].spineDown)
	}
	fmt.Println("Paper shape: ECMP's queues ≈10× CONGA's at the spine downlinks adjacent to failures.")
}

// --- Figure 17 / Theorem 1 ---

func runFig17(quick bool) {
	fmt.Println("Bottleneck routing game: Nash (selfish, CONGA-like) vs optimal (coordinated).")
	// The Figure 2 instance: PoA = 1 (CONGA optimal in simple asymmetry).
	in := anarchy.Uniform(2, 2, 10, []anarchy.User{{Src: 0, Dst: 1, Demand: 15}})
	in.CapDown[1][1] = 5
	_, opt, err := in.OptimalBottleneck()
	check(err)
	_, nash, err := in.Nash(anarchy.NashOptions{})
	check(err)
	fmt.Printf("  Figure-2 instance: optimal bottleneck %.3f, Nash %.3f, PoA %.3f\n", opt, nash, nash/opt)

	// Random instances: empirical PoA stays within Theorem 1's bound of 2.
	trials := 200
	if quick {
		trials = 40
	}
	rng := sim.NewRand(99)
	worst := 1.0
	for i := 0; i < trials; i++ {
		leaves, spines := 2+rng.Intn(4), 2+rng.Intn(4)
		var users []anarchy.User
		for u := 0; u < 1+rng.Intn(6); u++ {
			src, dst := rng.Intn(leaves), rng.Intn(leaves)
			for dst == src {
				dst = rng.Intn(leaves)
			}
			users = append(users, anarchy.User{Src: src, Dst: dst, Demand: 0.5 + 9*rng.Float64()})
		}
		inst := anarchy.Uniform(leaves, spines, 0, users)
		for l := 0; l < leaves; l++ {
			for s := 0; s < spines; s++ {
				inst.CapUp[l][s] = 1 + 9*rng.Float64()
			}
		}
		for s := 0; s < spines; s++ {
			for l := 0; l < leaves; l++ {
				inst.CapDown[s][l] = 1 + 9*rng.Float64()
			}
		}
		poa, err := inst.PoA([]uint64{0, 1, 2})
		check(err)
		if poa > worst {
			worst = poa
		}
	}
	fmt.Printf("  worst PoA over %d random asymmetric instances: %.3f (Theorem 1 bound: 2)\n", trials, worst)
}

// --- Theorem 2 ---

func runThm2(quick bool) {
	runs := 300
	if quick {
		runs = 60
	}
	fmt.Println("E[χ(t)] (traffic imbalance) for randomized placement on 4 links, λ=2000 flows/s:")
	fmt.Printf("  %-28s %8s %10s %10s %10s\n", "distribution", "t (s)", "per-flow", "per-flowlet", "bound")
	for _, d := range []workload.SizeDist{
		workload.WebSearch(),
		workload.DataMining(),
	} {
		for _, horizon := range []float64{0.5, 2, 8} {
			base := stochmodel.Config{
				Links: 4, Lambda: 2000, Dist: d, Horizon: horizon, Runs: runs, Seed: 5,
			}
			rf, err := stochmodel.Evaluate(base)
			check(err)
			fl := base
			fl.FlowletBytes = 500 << 10
			rfl, err := stochmodel.Evaluate(fl)
			check(err)
			fmt.Printf("  %-28s %8.1f %10.4f %10.4f %10.4f\n",
				d.Name(), horizon, rf.MeanImbalance, rfl.MeanImbalance, rf.Bound)
		}
	}
	fmt.Println("Paper shape: imbalance ∝ 1/√t, grows with CV, shrinks with flowlet placement.")
}

// --- Ablations ---

func runAblation(quick bool) {
	topo := fctTopo(quick)
	topo.FailedLinks = [][3]int{{1, 1, 1}}
	base := conga.DefaultParams()
	cases := []struct {
		name   string
		mutate func(*conga.Params)
	}{
		{"default (Q=3, τ=160µs, Tfl=500µs)", func(*conga.Params) {}},
		{"Q=2 (coarser metrics)", func(p *conga.Params) { p.Q = 2 }},
		{"Q=6 (finer metrics)", func(p *conga.Params) { p.Q = 6 }},
		{"τ=40µs (jumpy DRE)", func(p *conga.Params) { p.TDRE = 5 * sim.Microsecond }},
		{"τ=640µs (sluggish DRE)", func(p *conga.Params) { p.TDRE = 80 * sim.Microsecond }},
		{"Tfl=100µs (eager flowlets)", func(p *conga.Params) { p.Tfl = 100 * sim.Microsecond }},
		{"Tfl=13ms (per-flow)", func(p *conga.Params) { p.Tfl = 13 * sim.Millisecond }},
		{"timestamp gap mode", func(p *conga.Params) { p.GapMode = 1 }},
		{"sum path metric (§7)", func(p *conga.Params) { p.PathMetric = 1 }},
	}
	fmt.Println("CONGA parameter sensitivity — enterprise at 60% load with link failure:")
	fmt.Printf("  %-36s %10s %10s %10s%s\n", "variant", "normFCT", "drops", "timeouts", perfHeader())
	var cfgs []conga.FCTConfig
	names := make([]string, 0, len(cases)+1)
	for _, c := range cases {
		p := base
		c.mutate(&p)
		cfg := fctConfig(quick, conga.SchemeCONGA, conga.WorkloadEnterprise, 0.6)
		cfg.Topology = topo
		cfg.Params = &p
		cfgs = append(cfgs, cfg)
		names = append(names, c.name)
	}
	// Per-packet CONGA (Figure 1's rightmost branch): a near-zero flowlet
	// gap with a reordering-resilient TCP.
	{
		p := base
		p.Tfl = 2 * sim.Microsecond
		p.GapMode = 1 // timestamp mode: per-packet decisions without sweep cost
		cfg := fctConfig(quick, conga.SchemeCONGA, conga.WorkloadEnterprise, 0.6)
		cfg.Topology = topo
		cfg.Params = &p
		cfg.Transport.ReorderWindow = 300 * time.Microsecond
		cfgs = append(cfgs, cfg)
		names = append(names, "per-packet CONGA + reorder-resilient TCP")
	}
	rs, err := conga.RunFCTs(cfgs)
	check(err)
	for i, r := range rs {
		fmt.Printf("  %-36s %10.2f %10d %10d%s\n", names[i], r.NormFCT, r.Drops, r.Timeouts,
			perfCols(r.Events, r.Wall))
	}
	fmt.Println("Paper shape (§3.6): performance robust across Q=3..6, τ=100..500µs, Tfl=300µs..1ms.")
}
