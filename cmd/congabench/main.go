// Command congabench regenerates every table and figure of the CONGA paper
// (SIGCOMM 2014) on the packet-level simulator, printing the same series
// the paper plots. Absolute numbers differ from the hardware testbed; the
// shapes — which scheme wins, by roughly what factor, and where crossovers
// fall — are the reproduction target (see EXPERIMENTS.md).
//
// Usage:
//
//	congabench               # run everything at default scale
//	congabench -fig 11       # one figure
//	congabench -quick        # reduced scale (CI-sized)
//	congabench -list         # list available experiments
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	conga "conga"
)

type experiment struct {
	id   string
	desc string
	run  func(q bool)
}

var experiments = []experiment{
	{"fig2", "Figure 2: static vs local vs global LB under capacity asymmetry", runFig2},
	{"fig3", "Figure 3: optimal split depends on the traffic matrix", runFig3},
	{"fig5", "Figure 5: bytes CDF vs flowlet inactivity gap", runFig5},
	{"fig8", "Figure 8: empirical workload size and byte CDFs", runFig8},
	{"fig9", "Figure 9: FCT vs load, enterprise workload, baseline topology", runFig9},
	{"fig10", "Figure 10: FCT vs load, data-mining workload, baseline topology", runFig10},
	{"fig11", "Figure 11: FCT and hotspot queue under a link failure", runFig11},
	{"fig12", "Figure 12: leaf-uplink throughput-imbalance CDF at 60% load", runFig12},
	{"fig13", "Figure 13: Incast goodput vs fan-in (minRTO × MTU)", runFig13},
	{"fig14", "Figure 14: HDFS TestDFSIO job completion times", runFig14},
	{"fig15", "Figure 15: 10G vs 40G access links, FCT normalized to ECMP", runFig15},
	{"fig16", "Figure 16: per-port queues under multiple link failures", runFig16},
	{"fig17", "Figure 17 / Theorem 1: Price of Anarchy of the bottleneck game", runFig17},
	{"thm2", "Theorem 2: traffic imbalance vs time, flow sizes, flowlets", runThm2},
	{"ablation", "Ablations: parameter sensitivity (Q, τ, Tfl, gap mode)", runAblation},
	{"scale", "Scale sweep: 64/128/256-leaf fabrics at 40G/100G access", runScale},
	{"replay", "Paired A/B comparison: every scheme on one recorded trace, bootstrap CIs", runReplay},
}

// telemetryDir, when set via -telemetry, makes every figure run emit its
// counters and series into a tagged subdirectory. telemetrySeq numbers the
// subdirectories in config-construction order so sweep points stay
// distinguishable; construction is sequential even though the runs fan out
// across workers, and each run owns its private registry (per-engine
// isolation).
var (
	telemetryDir string
	telemetrySeq int
)

// telemetryFor returns per-run telemetry options flushing into a tagged
// subdirectory, or nil when -telemetry is not set. Packet traces stay off
// for sweeps — hundreds of runs × 64K events is noise, not observability;
// use congasim -telemetry for a traced single run.
func telemetryFor(tag string) *conga.TelemetryOptions {
	if telemetryDir == "" {
		return nil
	}
	telemetrySeq++
	opts := conga.TelemetryAll(filepath.Join(telemetryDir, fmt.Sprintf("%03d_%s", telemetrySeq, tag)))
	opts.Trace = false
	return opts
}

func main() {
	fig := flag.String("fig", "all", "experiment id (fig2..fig17, thm2, ablation, scale) or 'all'")
	quick := flag.Bool("quick", false, "reduced scale for a fast pass")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.StringVar(&telemetryDir, "telemetry", "", "emit telemetry counters and series for every run into tagged subdirectories of this directory")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		check(err)
		check(pprof.StartCPUProfile(f))
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			check(err)
			defer f.Close()
			runtime.GC() // drop dead objects so the profile shows what's retained
			check(pprof.WriteHeapProfile(f))
		}()
	}

	if *list {
		for _, e := range experiments {
			fmt.Printf("%-9s %s\n", e.id, e.desc)
		}
		return
	}

	ran := false
	for _, e := range experiments {
		if *fig != "all" && !strings.EqualFold(*fig, e.id) &&
			!strings.EqualFold("fig "+strings.TrimPrefix(*fig, "fig"), e.id) {
			continue
		}
		ran = true
		start := time.Now()
		fmt.Printf("==================================================================\n")
		fmt.Printf("%s — %s\n", strings.ToUpper(e.id), e.desc)
		fmt.Printf("==================================================================\n")
		e.run(*quick)
		fmt.Printf("[%s done in %v]\n\n", e.id, time.Since(start).Round(time.Millisecond))
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *fig)
		os.Exit(2)
	}
}

// perfHeader and perfCols format the throughput tail appended to every
// sweep table row: the row's executed simulator events per wall-clock
// second, and the wall time the row's runs cost. With parallel workers the
// wall column sums per-run cost, so it reads as CPU time spent, not
// elapsed time.
func perfHeader() string {
	return fmt.Sprintf(" %9s %9s", "events/s", "wall")
}

func perfCols(events uint64, wall time.Duration) string {
	if wall <= 0 {
		return fmt.Sprintf(" %9s %9s", "-", "-")
	}
	return fmt.Sprintf(" %8.1fM %9s",
		float64(events)/wall.Seconds()/1e6, wall.Round(10*time.Millisecond))
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "congabench:", err)
		os.Exit(1)
	}
}
