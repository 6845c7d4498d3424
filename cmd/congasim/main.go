// Command congasim runs a single CONGA fabric experiment from the command
// line: pick a topology, scheme, workload and load, and get the paper's
// metrics (FCTs by bucket, drops, retransmissions, optional imbalance and
// queue statistics) on stdout.
//
// Examples:
//
//	congasim                                    # testbed, CONGA, enterprise, 60%
//	congasim -scheme ecmp -load 0.9 -workload data-mining
//	congasim -scheme mptcp -fail 1,1,1          # MPTCP with a failed link
//	congasim -mode incast -fanout 32 -minrto 1ms
//	congasim -mode fig2 -scheme local
//	congasim -scheme ecmp -record run.trace.gz       # capture the workload
//	congasim -scheme conga -replay run.trace.gz      # re-inject it elsewhere
//	congasim -check                             # audit the run's invariants
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	conga "conga"
	"conga/internal/replay"
	"conga/internal/telemetry"
)

func main() {
	var (
		mode     = flag.String("mode", "fct", "experiment: fct, incast, hdfs, fig2, fig3")
		scheme   = flag.String("scheme", "conga", "ecmp, conga, conga-flow, local, spray, wcmp, mptcp")
		workload = flag.String("workload", "enterprise", "enterprise, data-mining, web-search")
		load     = flag.Float64("load", 0.6, "offered load as a fraction of bisection bandwidth")
		duration = flag.Duration("duration", 100*time.Millisecond, "arrival window (simulated)")
		maxFlows = flag.Int("maxflows", 5000, "bound on generated flows")
		seed     = flag.Uint64("seed", 1, "random seed")

		leaves    = flag.Int("leaves", 2, "leaf switches")
		spines    = flag.Int("spines", 2, "spine switches")
		hosts     = flag.Int("hosts", 32, "hosts per leaf")
		linksPer  = flag.Int("links", 2, "parallel links per leaf-spine pair")
		accessG   = flag.Float64("access", 10, "access link Gbps")
		fabricG   = flag.Float64("fabric", 40, "fabric link Gbps")
		failSpec  = flag.String("fail", "", "failed links as leaf,spine,k[;leaf,spine,k...]")
		transport = flag.String("transport", "", "tcp or mptcp (defaults by scheme)")
		minRTO    = flag.Duration("minrto", 200*time.Millisecond, "TCP minimum RTO")
		mtu       = flag.Int("mtu", 1500, "MTU in bytes")
		imbalance = flag.Bool("imbalance", false, "collect Figure-12 imbalance stats")
		queues    = flag.Bool("queues", false, "collect queue occupancy stats")
		check     = flag.Bool("check", false, "audit the run (fct, incast, hdfs): flowlet tables, link queues and host NIC packet conservation at every sweep, each completed flow's delivered bytes, no packet left, every packet accounted for and every pooled flow and endpoint returned at drain; exit 1 naming the first failure")

		fanout = flag.Int("fanout", 16, "incast fan-in (incast mode)")
		reqMB  = flag.Int("reqmb", 10, "incast request size in MB")

		recordPath = flag.String("record", "", "record the flow-arrival sequence to this gzip'd trace file (fct mode)")
		replayPath = flag.String("replay", "", "replay a recorded trace instead of generating a workload (fct mode; scheme/transport/failures may differ from the recording)")
		cdfOut     = flag.String("cdfout", "", "write collected CDFs (-imbalance, -queues) as cdf_*.ndjson sink files (value,fraction rows) into this directory (congaplot -cdf renders them)")

		telemetryDir  = flag.String("telemetry", "", "enable telemetry and write one NDJSON sink file per probe into this directory")
		telemetryFlow = flag.Int64("telemetry-flow", -1, "restrict the packet trace to this flow ID (-1 = all flows)")
		traceMode     = flag.String("trace-mode", "head", "packet-trace capture mode when full: head, tail (flight recorder), reservoir")
		traceTrigger  = flag.String("trace-trigger", "none", "freeze the trace on a condition: none, first-drop, first-rto (|-combinable)")
		traceStop     = flag.Int("trace-stop-after", 0, "record this many further events after the trigger before freezing")
		decisions     = flag.Bool("decisions", false, "enable the decision plane (requires -telemetry): flowlet routing audit trail, path load matrices, feedback-staleness series")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()
	var set []string
	flag.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
	die(checkFlags(*mode, set))

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		die(err)
		die(pprof.StartCPUProfile(f))
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			die(err)
			defer f.Close()
			runtime.GC() // drop dead objects so the profile shows what's retained
			die(pprof.WriteHeapProfile(f))
		}()
	}

	sch, err := parseScheme(*scheme)
	die(err)
	topo := conga.Topology{
		Leaves: *leaves, Spines: *spines, HostsPerLeaf: *hosts, LinksPerSpine: *linksPer,
		AccessGbps: *accessG, FabricGbps: *fabricG,
	}
	topo.FailedLinks, err = parseFailures(*failSpec)
	die(err)

	tc := conga.TransportConfig{MinRTO: *minRTO, MTU: *mtu}
	switch *transport {
	case "mptcp":
		tc.Kind = conga.TransportMPTCP
	case "", "tcp":
	default:
		die(fmt.Errorf("unknown transport %q", *transport))
	}

	tel, err := telemetryFlags{
		dir: *telemetryDir, flow: *telemetryFlow,
		traceMode: *traceMode, traceTrigger: *traceTrigger, traceStop: *traceStop,
		decisions: *decisions,
	}.options()
	die(err)

	switch *mode {
	case "fct":
		w, err := parseWorkload(*workload)
		die(err)
		cfg := conga.FCTConfig{
			Topology: topo, Scheme: sch, Workload: w, Load: *load,
			Transport: tc, Duration: *duration, MaxFlows: *maxFlows, Seed: *seed,
			CollectImbalance: *imbalance, CollectQueues: *queues,
			Telemetry: tel, Record: *recordPath != "", Check: *check,
		}
		if *replayPath != "" {
			tr, err := replay.Read(*replayPath)
			die(err)
			cfg.Replay = tr
			h := tr.Header
			fmt.Printf("replaying %s: %d flows (%.1f MB) recorded under %s/%s load %.0f%% on %s\n",
				*replayPath, h.Flows, float64(h.Bytes)/1e6, h.Scheme, h.Workload, h.Load*100, h.Topo)
		}
		res, err := conga.RunFCT(cfg)
		die(err)
		printFCT(res)
		printCheck(*check)
		printTelemetry(res.Telemetry, *telemetryDir)
		writeTrace(*recordPath, res.Trace)
		writeCDFs(*cdfOut, res)
	case "incast":
		res, err := conga.RunIncast(conga.IncastConfig{
			Topology: topo, Scheme: sch, Transport: tc,
			Fanout: *fanout, RequestBytes: int64(*reqMB) << 20, Seed: *seed,
			Telemetry: tel, Check: *check,
		})
		die(err)
		fmt.Printf("fanout %d: goodput %.1f%% of access rate, %d rounds, %d drops at client port, %d RTOs\n",
			res.Fanout, res.GoodputFraction*100, res.CompletedRounds, res.Drops, res.Timeouts)
		printCheck(*check)
		printTelemetry(res.Telemetry, *telemetryDir)
	case "hdfs":
		res, err := conga.RunHDFS(conga.HDFSConfig{
			Topology: topo, Scheme: sch, Transport: tc,
			BackgroundLoad: *load, Seed: *seed,
			Telemetry: tel, Check: *check,
		})
		die(err)
		fmt.Printf("job completion %.2fs (completed=%v), %d blocks, %d MB replicated, %d background flows\n",
			res.JobCompletion.Seconds(), res.Completed, res.Blocks, res.ReplicaBytes>>20, res.BackgroundFlows)
		printCheck(*check)
		printTelemetry(res.Telemetry, *telemetryDir)
	case "fig2":
		res, err := conga.RunFigure2(sch, *seed)
		die(err)
		fmt.Printf("%s: spine0 %.2fG spine1 %.2fG total %.2fG\n",
			res.Scheme, res.SpineGbps[0], res.SpineGbps[1], res.TotalGbps)
	case "fig3":
		for _, busy := range []bool{false, true} {
			res, err := conga.RunFigure3(sch, busy, *seed)
			die(err)
			fmt.Printf("%s L0-busy=%-5v: L1 via S0 %.2fG, via S1 %.2fG\n",
				res.Scheme, busy, res.LeafUplinkGbps[1][0], res.LeafUplinkGbps[1][1])
		}
	}
}

// Every mode reads -mode, -scheme, -seed and the profiles; modeFlags lists
// what else each one reads. The fabric flags build the topology, transport
// and telemetry that fct, incast and hdfs share; fig2 and fig3 build their
// own fabric and observe nothing.
var (
	commonFlags = []string{"mode", "scheme", "seed", "cpuprofile", "memprofile"}
	fabricFlags = []string{"leaves", "spines", "hosts", "links", "access", "fabric", "fail",
		"transport", "minrto", "mtu", "telemetry", "telemetry-flow", "trace-mode",
		"trace-trigger", "trace-stop-after", "decisions"}
	modeFlags = map[string][]string{
		"fct": append([]string{"workload", "load", "duration", "maxflows", "imbalance",
			"queues", "record", "replay", "cdfout", "check"}, fabricFlags...),
		"incast": append([]string{"fanout", "reqmb", "check"}, fabricFlags...),
		"hdfs":   append([]string{"load", "check"}, fabricFlags...),
		"fig2":   nil,
		"fig3":   nil,
	}
)

// printCheck reports an audited run that passed; a failed audit has
// already exited through die.
func printCheck(on bool) {
	if on {
		fmt.Println("check: passed (flowlet tables, link queues and host NIC packet conservation at every sweep, completed flow sizes, drain, global packet conservation and pool returns)")
	}
}

// checkFlags refuses an unknown mode and every flag in set (the names given
// on the command line) that the mode does not read, before anything is
// built: a flag that would be ignored is an error, not a silent default.
func checkFlags(mode string, set []string) error {
	reads, ok := modeFlags[mode]
	if !ok {
		return fmt.Errorf("unknown mode %q", mode)
	}
	for _, name := range set {
		if !slices.Contains(commonFlags, name) && !slices.Contains(reads, name) {
			return fmt.Errorf("-mode %s does not read -%s", mode, name)
		}
	}
	return nil
}

// telemetryFlags are the flags that decide what a run observes.
type telemetryFlags struct {
	dir                     string
	flow                    int64
	traceMode, traceTrigger string
	traceStop               int
	decisions               bool
}

// options resolves the flags into the run's telemetry options — nil
// without -telemetry.
func (f telemetryFlags) options() (tel *conga.TelemetryOptions, err error) {
	if f.dir == "" {
		if f.decisions {
			return nil, fmt.Errorf("-decisions needs telemetry enabled; add -telemetry DIR")
		}
		return nil, nil
	}
	tel = conga.TelemetryAll(f.dir)
	if f.flow >= 0 {
		tel.TraceFilter.FlowID = f.flow
		tel.TraceFilter.SrcHost, tel.TraceFilter.DstHost = -1, -1
		tel.TraceFilter.SrcPort, tel.TraceFilter.DstPort = -1, -1
	}
	if tel.TraceMode, err = telemetry.ParseCaptureMode(f.traceMode); err != nil {
		return nil, err
	}
	if tel.TraceTrigger, err = telemetry.ParseTrigger(f.traceTrigger); err != nil {
		return nil, err
	}
	tel.TraceStopAfter = f.traceStop
	// The decision plane is opt-in on the CLI: the audit trail and path
	// matrices only appear with -decisions.
	tel.Decisions, tel.DecisionTrace = f.decisions, f.decisions
	tel.DecisionMode = tel.TraceMode
	return tel, nil
}

func printFCT(r *conga.FCTResult) {
	fmt.Printf("scheme=%s workload=%s load=%.0f%%\n", r.Scheme, r.Workload, r.Load*100)
	fmt.Printf("flows: generated %d, completed %d\n", r.Generated, r.Completed)
	fmt.Printf("FCT: avg %v, p99 %v, norm(avg) %.2f, norm(per-flow) %.2f\n",
		r.AvgFCT.Round(time.Microsecond), r.P99FCT.Round(time.Microsecond), r.NormFCT, r.NormFCTPerFlow)
	fmt.Printf("buckets: small(<100KB) avg %v over %d, large(>10MB) avg %v over %d\n",
		r.SmallAvgFCT.Round(time.Microsecond), r.SmallCount, r.LargeAvgFCT.Round(time.Millisecond), r.LargeCount)
	fmt.Printf("loss: %d drops, %d retransmitted segments, %d RTOs\n", r.Drops, r.Retransmits, r.Timeouts)
	if r.ImbalanceCDF != nil {
		fmt.Printf("uplink imbalance: mean %.3f over %d windows\n", r.ImbalanceMean, len(r.ImbalanceCDF))
	}
	if r.HotspotQueueCDF != nil {
		maxq := r.HotspotQueueCDF[len(r.HotspotQueueCDF)-1][0]
		fmt.Printf("hotspot queue: max %.2f MB\n", maxq/1e6)
	}
	fmt.Printf("cost: %v simulated, %d events\n", r.SimTime, r.Events)
}

// writeTrace stores a recorded arrival trace (no-op when recording was off).
func writeTrace(path string, tr *replay.Trace) {
	if path == "" {
		return
	}
	die(tr.Write(path))
	fmt.Printf("recorded %d flows (%.1f MB offered) to %s\n",
		tr.Header.Flows, float64(tr.Header.Bytes)/1e6, path)
}

// writeCDFs emits the run's collected CDFs as cdf_*.ndjson sink files
// (value,fraction rows), which congaplot -cdf renders (paper Figures 12 and
// 11b).
func writeCDFs(dir string, r *conga.FCTResult) {
	if dir == "" {
		return
	}
	if r.ImbalanceCDF == nil && r.HotspotQueueCDF == nil {
		fmt.Println("cdfout: no CDFs collected (pass -imbalance and/or -queues)")
		return
	}
	n := 0
	write := func(name, unit string, cdf conga.CDF) {
		if cdf != nil {
			die((&telemetry.SinkFile{Table: telemetry.CDFTable, Probe: name, Unit: unit, CDF: cdf}).Write(dir))
			n++
		}
	}
	write("imbalance", "ratio", r.ImbalanceCDF)
	write("queue_hotspot", "bytes", r.HotspotQueueCDF)
	for name, cdf := range r.QueueCDFs {
		write("queue_"+name, "bytes", cdf)
	}
	fmt.Printf("cdfout: wrote %d cdf_*.ndjson files to %s\n", n, dir)
}

func printTelemetry(reg *conga.TelemetryRegistry, dir string) {
	if reg == nil {
		return
	}
	enq, deq, drops, ce := reg.LinkTotals()
	tcp := reg.TCPTotals()
	creates, expires, evicts := reg.FlowletTotals()
	fmt.Printf("telemetry: links enq %d deq %d drops %d ce-marks %d; tcp retx %d rto %d dupacks %d; flowlets created %d expired %d evicted %d\n",
		enq, deq, drops, ce, tcp.Retransmits, tcp.Timeouts, tcp.DupAcks, creates, expires, evicts)
	if rows := reg.EngineRows(); len(rows) > 0 {
		fmt.Print("engine:")
		for _, row := range rows {
			fmt.Printf(" %s %d", row.Counter, row.Value)
		}
		fmt.Println()
	}
	fmt.Printf("telemetry: %d series, %d trace events -> %s\n", len(reg.AllSeries()), reg.Trace().Len(), dir)
	if tr := reg.Trace(); tr != nil {
		info := tr.Info()
		if info.Triggered {
			fmt.Printf("telemetry: trace capture=%s suppressed=%d trigger=%s fired at %v (%s)\n",
				info.Mode, info.Suppressed, info.Trigger, time.Duration(info.TriggeredAt), info.TriggerReason)
		} else if info.Mode != telemetry.CaptureHead || info.Trigger != 0 {
			fmt.Printf("telemetry: trace capture=%s suppressed=%d trigger=%s (not fired)\n",
				info.Mode, info.Suppressed, info.Trigger)
		}
	}
	if dt := reg.DecisionTotals(); dt.Sticky+dt.NewFlowlet+dt.Expired+dt.Evicted > 0 {
		fmt.Printf("decisions: sticky %d new-flowlet %d expired %d evicted %d cold %d",
			dt.Sticky, dt.NewFlowlet, dt.Expired, dt.Evicted, dt.Cold)
		if tr := reg.DecisionTrace(); tr != nil {
			info := tr.Info()
			fmt.Printf("; audit trail capture=%s recorded=%d suppressed=%d", info.Mode, info.Recorded, info.Suppressed)
		}
		fmt.Println()
		for _, sm := range reg.PathSummaries() {
			fmt.Printf("decisions: leaf%d routed %d flowlets %d MB; uplink imbalance %.2f entropy %.2f\n",
				sm.Leaf, sm.Flowlets, sm.Bytes>>20, sm.Imbalance, sm.Entropy)
		}
	}
}

func parseScheme(s string) (conga.Scheme, error) {
	if s == "mptcp" {
		return conga.SchemeMPTCPMarker, nil
	}
	return conga.ParseScheme(s)
}

func parseWorkload(s string) (conga.Workload, error) {
	switch s {
	case "enterprise":
		return conga.WorkloadEnterprise, nil
	case "data-mining":
		return conga.WorkloadDataMining, nil
	case "web-search":
		return conga.WorkloadWebSearch, nil
	}
	return 0, fmt.Errorf("unknown workload %q", s)
}

func parseFailures(spec string) ([][3]int, error) {
	if spec == "" {
		return nil, nil
	}
	var out [][3]int
	for _, part := range strings.Split(spec, ";") {
		fields := strings.Split(part, ",")
		if len(fields) != 3 {
			return nil, fmt.Errorf("bad failure spec %q (want leaf,spine,k)", part)
		}
		var f [3]int
		for i, fs := range fields {
			v, err := strconv.Atoi(strings.TrimSpace(fs))
			if err != nil {
				return nil, fmt.Errorf("bad failure spec %q: %v", part, err)
			}
			f[i] = v
		}
		out = append(out, f)
	}
	return out, nil
}

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "congasim:", err)
		os.Exit(1)
	}
}
