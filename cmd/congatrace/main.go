// Command congatrace reproduces the §2.6 measurement analysis (Figure 5):
// generate a synthetic bursty datacenter trace and report how data bytes
// distribute across transfer sizes when the trace is flowletized at
// different inactivity gaps, plus the concurrent-flowlet census that sizes
// the ASIC's flowlet table.
//
// A second mode reads back a trace file and prints a summary. For a
// packet trace flushed by the telemetry subsystem (a -telemetry run's
// trace.ndjson) it prints the capture policy — mode, trigger, how
// many events were suppressed by the flight-recorder ring or reservoir —
// plus a per-event-kind summary. For a flowlet routing audit trail (a
// -decisions run's decisions file) it prints the capture policy, the
// recorded-plus-suppressed accounting, the routing-reason mix, the feedback
// age of the winning remote metrics, and the hottest (srcLeaf, uplink,
// dstLeaf) paths. Both go through telemetry.ReadSinkFile, which tells the
// table from the bytes, so the file's name does not matter;
// any other sink table, a damaged row or a final line cut short is an error
// naming file:line. For a workload replay trace (congasim -record, either
// NDJSON or gzip'd binary) it prints the header — format version, recording
// provenance, topology fingerprint, flow count — and the arrival mix.
//
// Usage:
//
//	congatrace [-flows 5000] [-workload enterprise] [-rate 10] [-burst 65536]
//	congatrace -read out/telemetry/trace.ndjson
//	congatrace -read out/telemetry/decisions.ndjson
//	congatrace -read run.trace.gz
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"conga/internal/sim"
	"conga/internal/traceanalysis"
	"conga/internal/workload"
)

func main() {
	var (
		flows    = flag.Int("flows", 5000, "number of flows in the trace")
		dist     = flag.String("workload", "enterprise", "enterprise, data-mining, web-search")
		rateGbps = flag.Float64("rate", 10, "host line rate in Gbps")
		meanGbps = flag.Float64("meanrate", 1, "per-flow average rate in Gbps")
		burst    = flag.Int64("burst", 64<<10, "NIC offload burst size in bytes")
		window   = flag.Duration("window", 50*time.Millisecond, "flow arrival window")
		seed     = flag.Uint64("seed", 1, "random seed")
		read     = flag.String("read", "", "read back a trace file (a telemetry packet trace or decision trail, or a workload replay trace) instead of generating one")
	)
	flag.Parse()

	if *read != "" {
		if err := readTrace(os.Stdout, *read); err != nil {
			fmt.Fprintln(os.Stderr, "congatrace:", err)
			os.Exit(1)
		}
		return
	}

	var d workload.SizeDist
	switch *dist {
	case "enterprise":
		d = workload.Enterprise()
	case "data-mining":
		d = workload.DataMining()
	case "web-search":
		d = workload.WebSearch()
	default:
		fmt.Fprintf(os.Stderr, "congatrace: unknown workload %q\n", *dist)
		os.Exit(2)
	}

	tr, err := traceanalysis.Generate(traceanalysis.GenConfig{
		Flows:         *flows,
		Dist:          d,
		LinkRateBps:   *rateGbps * 1e9,
		BurstBytes:    *burst,
		MeanRateBps:   *meanGbps * 1e9,
		ArrivalWindow: sim.Duration(*window),
		Seed:          *seed,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "congatrace:", err)
		os.Exit(1)
	}

	fmt.Printf("trace: %d flows, %.1f GB, %.1f ms span\n",
		*flows, float64(tr.TotalBytes)/1e9, tr.Span.Seconds()*1e3)
	fmt.Printf("%-18s %12s %18s\n", "granularity", "transfers", "median size by bytes")
	for _, g := range []struct {
		name string
		gap  sim.Time
	}{
		{"Flow (250ms)", 250 * sim.Millisecond},
		{"Flowlet (500µs)", 500 * sim.Microsecond},
		{"Flowlet (100µs)", 100 * sim.Microsecond},
	} {
		sizes := tr.Flowletize(g.gap)
		fmt.Printf("%-18s %12d %17.3gB\n", g.name, len(sizes),
			float64(traceanalysis.MedianBytesSize(sizes)))
	}

	fmt.Println("\nbytes CDF vs transfer size (Figure 5 series):")
	fmt.Printf("%12s %14s %14s %14s\n", "size ≤", "flow(250ms)", "flowlet(500µs)", "flowlet(100µs)")
	marks := []float64{1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9}
	cdfs := [][][2]float64{
		traceanalysis.BytesCDF(tr.Flowletize(250 * sim.Millisecond)),
		traceanalysis.BytesCDF(tr.Flowletize(500 * sim.Microsecond)),
		traceanalysis.BytesCDF(tr.Flowletize(100 * sim.Microsecond)),
	}
	for _, m := range marks {
		fmt.Printf("%12.0e", m)
		for _, cdf := range cdfs {
			frac := 0.0
			for _, pt := range cdf {
				if pt[0] <= m {
					frac = pt[1]
				}
			}
			fmt.Printf(" %13.1f%%", frac*100)
		}
		fmt.Println()
	}

	med, max := tr.ConcurrencyStats(sim.Millisecond)
	fmt.Printf("\nconcurrent flows per 1ms: median %d, max %d\n", med, max)
}
