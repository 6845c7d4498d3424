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
