package main

// metricDef declares one metric exactly as BENCHMARK.json lists it; the
// test in this package holds the two lists equal.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the median the metric may worsen
}

// value reduces a run's samples of an end-to-end metric to the number the
// run reports. Set-up time is the median of its batch medians (a batch of
// builds before the warm-up and after every pass). A pass is the same
// deterministic work every time and everything the host adds is
// one-sided — on the recorded VM, neighbours' memory traffic slows single
// passes by up to 60% in bursts of seconds — so the timed-pass metrics report
// the best pass: over 200 back-to-back Incast passes cut into runs of 5, the
// run medians spread 8.2% between quartiles (52% end to end), the run minima
// 4.4% (16%). Median, extremes and count are printed beside it.
func (d metricDef) value(s sample) float64 {
	switch {
	case d.name == "setup_s":
		return s.median()
	case d.better == "higher":
		return s.max()
	}
	return s.min()
}

// endToEnd are the metrics a user of the library sees, all host-side. One
// pass is the conga.Run* call(s) of the workload; see value for what a run
// reports over its passes.
//
// Every bound is the contract's maximum. A bound holds for all workloads,
// and the 2-vCPU VM the baseline was recorded on drifts by 15-25% over tens
// of minutes for the same code (memory contention from its neighbours: a
// register-only loop stays within 3% while a pointer chase and the simulator
// move together), and the sweep's peak RSS moves by 15% with the seed (which
// two configs overlap); see README.md for the measured spreads.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"goodput_pkts_per_s", "1/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer are the traced run's metrics. The ladder rungs (sim.* … runner.
// dispatch_us) call one layer's exported API from outside; the conga.*,
// *_ratio, *_speedup and *.cpu_frac rows attribute a whole pass. Metrics
// whose name says sim/norm_fct/goodput_frac/drops/retx/timeouts/digest are
// simulated quantities; everything else is host time or host counts.
var perLayer = []metricDef{
	{"sim.ns_per_event_near", "ns", "lower", 0},
	{"sim.ns_per_event_far", "ns", "lower", 0},
	{"sim.ns_per_cancel", "ns", "lower", 0},
	{"sim.allocs_per_event", "count", "lower", 0},
	{"sim.barrier_ns_per_window", "ns", "lower", 0},
	{"core.ns_per_select_sticky", "ns", "lower", 0},
	{"core.ns_per_select_new", "ns", "lower", 0},
	{"core.flowlet_hit_ratio", "ratio", "higher", 0},
	{"core.ns_per_dre_decay", "ns", "lower", 0},
	{"core.ns_per_feedback", "ns", "lower", 0},
	{"fabric.ns_per_pkt_idle", "ns", "lower", 0},
	{"fabric.events_per_pkt_idle", "count", "lower", 0},
	{"fabric.ns_per_pkt_contended", "ns", "lower", 0},
	{"fabric.events_per_pkt_contended", "count", "lower", 0},
	{"fabric.drop_frac_contended", "ratio", "lower", 0},
	{"fabric.ns_per_pkt_observed", "ns", "lower", 0},
	{"fabric.build_ms", "ms", "lower", 0},
	{"fabric.idle_ns_per_sim_ms", "ns", "lower", 0},
	{"tcp.ns_per_pkt_clean", "ns", "lower", 0},
	{"tcp.ns_per_flow_short", "ns", "lower", 0},
	{"tcp.ns_per_pkt_lossy", "ns", "lower", 0},
	{"tcp.retx_frac", "ratio", "lower", 0},
	{"tcp.timeouts", "count", "lower", 0},
	{"mptcp.ns_per_pkt", "ns", "lower", 0},
	{"mptcp.ns_per_flow_short", "ns", "lower", 0},
	{"workload.ns_per_arrival", "ns", "lower", 0},
	{"replay.write_ns_per_flow", "ns", "lower", 0},
	{"replay.read_ns_per_flow", "ns", "lower", 0},
	{"stats.ns_per_record", "ns", "lower", 0},
	{"telemetry.flush_ms", "ms", "lower", 0},
	{"telemetry.ns_per_observe", "ns", "lower", 0},
	{"telemetry.ns_per_trace_record", "ns", "lower", 0},
	{"runner.dispatch_us", "us", "lower", 0},

	{"conga.events", "count", "lower", 0},
	{"conga.ns_per_event", "ns", "lower", 0},
	{"conga.events_per_pkt", "count", "lower", 0},
	{"conga.allocs", "count", "lower", 0},
	{"conga.alloc_mb", "MB", "lower", 0},
	{"conga.gc_cycles", "count", "lower", 0},
	{"conga.gc_pause_ms", "ms", "lower", 0},
	{"conga.warmup_s", "s", "lower", 0},
	{"conga.norm_fct", "ratio", "lower", 0},
	{"conga.goodput_frac", "ratio", "higher", 0},
	{"conga.drops", "count", "lower", 0},
	{"conga.retx", "count", "lower", 0},
	{"conga.timeouts", "count", "lower", 0},
	{"conga.digest", "hash48", "lower", 0},
	{"conga.parallel_speedup", "ratio", "higher", 0},
	{"conga.scale_cost_ratio", "ratio", "lower", 0},
	{"telemetry.overhead_frac", "ratio", "lower", 0},
	{"telemetry.events_ratio", "ratio", "lower", 0},
	{"telemetry.allocs_ratio", "ratio", "lower", 0},
	{"runner.sweep_speedup", "ratio", "higher", 0},

	{"sim.cpu_frac", "ratio", "lower", 0},
	{"core.cpu_frac", "ratio", "lower", 0},
	{"fabric.cpu_frac", "ratio", "lower", 0},
	{"tcp.cpu_frac", "ratio", "lower", 0},
	{"mptcp.cpu_frac", "ratio", "lower", 0},
	{"workload.cpu_frac", "ratio", "lower", 0},
	{"stats.cpu_frac", "ratio", "lower", 0},
	{"telemetry.cpu_frac", "ratio", "lower", 0},
	{"runtime.cpu_frac", "ratio", "lower", 0},
	{"other.cpu_frac", "ratio", "lower", 0},
	{"trace_overhead_frac", "ratio", "lower", 0},
}
