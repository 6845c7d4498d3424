package main

import (
	"strings"
	"testing"
)

// TestSequentialTelemetryFlagsKeepTheTrace pins how the telemetry flags
// resolve: -telemetry keeps the trace of every flow, or of the one
// -telemetry-flow names (flow 0 included), and -decisions the audit trail.
func TestSequentialTelemetryFlagsKeepTheTrace(t *testing.T) {
	tel, err := telemetryFlags{
		dir: "d", flow: -1, traceMode: "tail", traceTrigger: "first-drop",
		decisions: true,
	}.options()
	if err != nil || !tel.Trace || !tel.Decisions || tel.TraceFlow != nil {
		t.Fatalf("err %v, options %+v", err, tel)
	}
	if tel, err := (telemetryFlags{dir: "d", flow: 0}).options(); err != nil || tel.TraceFlow == nil || *tel.TraceFlow != 0 {
		t.Fatalf("-telemetry-flow 0: options %+v, err %v; want flow 0 traced", tel, err)
	}
	if tel, err := (telemetryFlags{flow: -1}).options(); tel != nil || err != nil {
		t.Fatalf("no -telemetry: options %+v, err %v; want none", tel, err)
	}
	if _, err := (telemetryFlags{decisions: true}).options(); err == nil {
		t.Fatal("-decisions without -telemetry must be an error")
	}
}

// TestModeRefusesFlagsItDoesNotRead: a flag the chosen mode never reads is
// refused, naming the flag and the mode, instead of being ignored. Each row
// is a command line; every "-name" in it counts as set.
func TestModeRefusesFlagsItDoesNotRead(t *testing.T) {
	rows := []struct{ args, want string }{
		{"-mode hdfs -load 0.4", ""},
		{"-mode incast -telemetry d", ""},
		{"-mode incast -fanout 32 -reqmb 2 -minrto 1ms -decisions", ""},
		{"-scheme ecmp -record r.trace.gz -cdfout d -imbalance", ""},
		{"-mode fig2 -scheme local -seed 3 -cpuprofile p", ""},
		{"-mode incast -replay t.gz", "-mode incast does not read -replay"},
		{"-mode incast -record x.trace.gz", "-mode incast does not read -record"},
		{"-mode hdfs -record x.trace.gz", "-mode hdfs does not read -record"},
		{"-mode fig2 -decisions", "-mode fig2 does not read -decisions"},
		{"-mode fig3 -leaves 4", "-mode fig3 does not read -leaves"},
		{"-mode fig2 -telemetry d", "-mode fig2 does not read -telemetry"},
		{"-mode fig3 -transport mptcp", "-mode fig3 does not read -transport"},
		{"-check", ""},
		{"-mode incast -fanout 8 -check", ""},
		{"-mode hdfs -load 0.2 -check", ""},
		{"-mode fig2 -check", "-mode fig2 does not read -check"},
		{"-mode incast -duration 5ms", "-mode incast does not read -duration"},
		{"-mode hdfs -workload data-mining", "-mode hdfs does not read -workload"},
		{"-mode incast -imbalance", "-mode incast does not read -imbalance"},
		{"-mode hdfs -fanout 8", "-mode hdfs does not read -fanout"},
		{"-reqmb 2", "-mode fct does not read -reqmb"},
		{"-mode fig1", `unknown mode "fig1"`},
	}
	for _, row := range rows {
		mode, set := "fct", []string(nil)
		fields := strings.Fields(row.args)
		for i, f := range fields {
			if name, ok := strings.CutPrefix(f, "-"); ok {
				set = append(set, name)
				if name == "mode" {
					mode = fields[i+1]
				}
			}
		}
		err := checkFlags(mode, set)
		switch {
		case row.want == "" && err != nil:
			t.Errorf("%s: refused: %v", row.args, err)
		case row.want != "" && (err == nil || err.Error() != row.want):
			t.Errorf("%s: error %v, want %q", row.args, err, row.want)
		}
	}
}
