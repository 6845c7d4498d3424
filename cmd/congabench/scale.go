package main

import (
	"fmt"
	"time"

	conga "conga"
)

// runScale sweeps the large-fabric grid (64/128/256 leaves at 40G and
// 100G access) — the scale regime the paper argues CONGA's O(leaves)
// state makes reachable, an order of magnitude past its 32-leaf testbed.
// Rows stream as cells finish; cells run in parallel, one engine and one
// set of object pools per cell.
// scaleParallel is the -parallel flag: space-parallel domains per cell.
var scaleParallel int

func runScale(quick bool) {
	cfg := conga.ScaleConfig{Scheme: conga.SchemeCONGA, Parallel: scaleParallel}
	if quick {
		cfg.Leaves = []int{8, 16}
		cfg.MaxFlows = 300
	}
	fmt.Printf("  %-7s %-7s %-8s %-10s %-10s %-10s%s %s\n",
		"leaves", "hosts", "access", "normFCT", "avgFCT", "events", perfHeader(), "elapsed")
	start := time.Now()
	_, err := conga.RunScaleStream(cfg, func(i int, p conga.ScalePoint, err error) {
		if err != nil {
			fmt.Printf("  %-7d %-7d %-8s error: %v\n", p.Leaves, p.Hosts,
				fmt.Sprintf("%gG", p.AccessGbps), err)
			return
		}
		fmt.Printf("  %-7d %-7d %-8s %-10.3f %-10s %-10d%s %v\n",
			p.Leaves, p.Hosts, fmt.Sprintf("%gG", p.AccessGbps),
			p.Result.NormFCT, p.Result.AvgFCT.Round(time.Microsecond),
			p.Result.Events, perfCols(p.Result.Events, p.Result.Wall),
			time.Since(start).Round(time.Millisecond))
	})
	check(err)
	fmt.Println("Expected shape: normFCT stays near 1 as the fabric grows — CONGA's leaf-local state keeps load balanced without per-fabric tuning.")
}
