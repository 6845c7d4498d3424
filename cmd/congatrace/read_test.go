package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"conga"
)

// TestReadReportsAgreeAcrossFormats flushes one small recorded run and reads
// back its packet trace and its decision trail from both the CSV and the
// NDJSON file. The two readers of each must print the same report below the
// line naming the file (the NDJSON trace reader once dropped the provenance
// line), and that report must be the one in testdata: what the CSV readers
// printed for these files before the NDJSON readers shared one meta-line
// parser.
func TestReadReportsAgreeAcrossFormats(t *testing.T) {
	dir := t.TempDir()
	opts := conga.TelemetryAll(dir)
	opts.TraceCap = 1 << 12
	opts.DecisionCap = 1 << 10
	if _, err := conga.RunFCT(conga.FCTConfig{
		Topology: conga.Topology{Leaves: 2, Spines: 2, HostsPerLeaf: 4, LinksPerSpine: 1,
			AccessGbps: 10, FabricGbps: 10},
		Scheme:    conga.SchemeCONGA,
		Workload:  conga.WorkloadEnterprise,
		Load:      0.6,
		Duration:  4 * time.Millisecond,
		MaxFlows:  40,
		Seed:      7,
		Record:    true,
		Telemetry: opts,
	}); err != nil {
		t.Fatal(err)
	}
	report := func(name string) string {
		var b strings.Builder
		if err := readTrace(&b, filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
		_, body, _ := strings.Cut(b.String(), "\n") // the first line names the file
		return body
	}
	for _, base := range []string{"trace", "decisions"} {
		golden, err := os.ReadFile(filepath.Join("testdata", base+".report"))
		if err != nil {
			t.Fatal(err)
		}
		csv, ndjson := report(base+".csv"), report(base+".ndjson")
		if csv != ndjson {
			t.Errorf("%s: the CSV and NDJSON reports differ\ncsv:\n%s\nndjson:\n%s", base, csv, ndjson)
		}
		if csv != string(golden) {
			t.Errorf("%s.csv report:\n%s\nwant:\n%s", base, csv, golden)
		}
	}
}
