package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	conga "conga"
)

// TestParallelTelemetryFlagsRun checks that what -parallel 2 -telemetry DIR
// [-decisions] resolves to is a configuration RunFCT accepts at Parallel: 2
// and that the run flushes the probes the notices promise: counters and
// series.
func TestParallelTelemetryFlagsRun(t *testing.T) {
	for _, decisions := range []bool{false, true} {
		dir := t.TempDir()
		tel, notices, err := telemetryFlags{
			dir: dir, flow: -1, traceMode: "head", traceTrigger: "none",
			decisions: decisions, parallel: 2,
		}.options()
		if err != nil {
			t.Fatal(err)
		}
		wantNotices := []string{"packet trace disabled"}
		if decisions {
			wantNotices = append(wantNotices, "audit trail disabled")
		}
		if len(notices) != len(wantNotices) {
			t.Fatalf("decisions=%v: notices %q, want one per %q", decisions, notices, wantNotices)
		}
		for i, want := range wantNotices {
			if !strings.Contains(notices[i], want) {
				t.Errorf("decisions=%v: notice %q does not mention %q", decisions, notices[i], want)
			}
		}
		if tel.Trace || tel.DecisionTrace || tel.Decisions != decisions || !tel.Counters || !tel.Series {
			t.Fatalf("decisions=%v: resolved options %+v", decisions, *tel)
		}

		_, err = conga.RunFCT(conga.FCTConfig{
			Topology:  conga.Topology{Leaves: 2, Spines: 2, HostsPerLeaf: 4, LinksPerSpine: 1, AccessGbps: 10, FabricGbps: 40},
			Scheme:    conga.SchemeCONGA,
			Workload:  conga.WorkloadEnterprise,
			Load:      0.5,
			Transport: conga.TransportConfig{MinRTO: 10 * time.Millisecond},
			Duration:  2 * time.Millisecond,
			MaxFlows:  40,
			Seed:      1,
			Telemetry: tel,
			Parallel:  2,
		})
		if err != nil {
			t.Fatalf("decisions=%v: RunFCT rejected the resolved options: %v", decisions, err)
		}
		if st, err := os.Stat(filepath.Join(dir, "counters.ndjson")); err != nil || st.Size() == 0 {
			t.Errorf("decisions=%v: counters.ndjson not flushed: %v", decisions, err)
		}
		if series, _ := filepath.Glob(filepath.Join(dir, "series_*.ndjson")); len(series) == 0 {
			t.Errorf("decisions=%v: no series_*.ndjson flushed", decisions)
		}
	}
}

// TestSequentialTelemetryFlagsKeepTheTrace pins the other side: without
// -parallel nothing is switched off and nothing is announced.
func TestSequentialTelemetryFlagsKeepTheTrace(t *testing.T) {
	tel, notices, err := telemetryFlags{
		dir: "d", flow: -1, traceMode: "tail", traceTrigger: "first-drop",
		decisions: true, parallel: 1,
	}.options()
	if err != nil || len(notices) != 0 || !tel.Trace || !tel.DecisionTrace {
		t.Fatalf("err %v, notices %q, options %+v", err, notices, tel)
	}
	if tel, _, err := (telemetryFlags{flow: -1, parallel: 1}).options(); tel != nil || err != nil {
		t.Fatalf("no -telemetry and no -serve: options %+v, err %v; want none", tel, err)
	}
	if _, _, err := (telemetryFlags{decisions: true}).options(); err == nil {
		t.Fatal("-decisions without -telemetry or -serve must be an error")
	}
}

// TestModeRefusesFlagsItDoesNotRead: a flag the chosen mode never reads is
// refused, naming the flag and the mode, instead of being ignored. Each row
// is a command line; every "-name" in it counts as set.
func TestModeRefusesFlagsItDoesNotRead(t *testing.T) {
	rows := []struct{ args, want string }{
		{"-mode hdfs -load 0.4", ""},
		{"-mode incast -telemetry d", ""},
		{"-mode incast -fanout 32 -reqmb 2 -minrto 1ms -serve :0 -linger 1s", ""},
		{"-scheme ecmp -record r.trace.gz -parallel 2 -cdfout d -imbalance", ""},
		{"-mode fig2 -scheme local -seed 3 -cpuprofile p", ""},
		{"-mode incast -replay t.gz", "-mode incast does not read -replay"},
		{"-mode incast -record x.trace.gz", "-mode incast does not read -record"},
		{"-mode hdfs -record x.trace.gz", "-mode hdfs does not read -record"},
		{"-mode fig2 -serve :8080", "-mode fig2 does not read -serve"},
		{"-mode fig3 -leaves 4", "-mode fig3 does not read -leaves"},
		{"-mode fig2 -telemetry d", "-mode fig2 does not read -telemetry"},
		{"-mode fig3 -transport mptcp", "-mode fig3 does not read -transport"},
		{"-mode hdfs -parallel 2", "-mode hdfs does not read -parallel"},
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
