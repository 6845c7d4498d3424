package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"conga"
)

// TestReadReportsAgreeAcrossFormats flushes one small recorded run and reads
// back its packet trace and its decision trail from both the CSV and the
// NDJSON file. Each pair must print the same report below the line naming the
// file, and that report must be the one in testdata: what the hand-written
// CSV readers printed for these files before telemetry.ReadSinkFile replaced
// them. Then it feeds readTrace what those readers got wrong: a decision
// trail under another name, a trace whose "where" needs CSV quoting, sink
// files that are neither table, and a trace cut short.
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

	read := func(name string) []byte {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	write := func(name string, b []byte) {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("audit.csv", read("decisions.csv"))
	if got, want := report("audit.csv"), report("decisions.csv"); got != want {
		t.Errorf("a renamed decisions.csv reads as\n%s\nwant the decision trail\n%s", got, want)
	}

	// Every event of flow 4 at h7 moves to a site named `a,"b"`: same flows,
	// same report, from both encodings.
	write("quoted.csv", bytes.ReplaceAll(read("trace.csv"), []byte(",h7,4,"), []byte(`,"a,""b""",4,`)))
	write("quoted.ndjson", bytes.ReplaceAll(read("trace.ndjson"), []byte(`"where":"h7","flow":4,`), []byte(`"where":"a,\"b\"","flow":4,`)))
	if bytes.Equal(read("quoted.csv"), read("trace.csv")) || bytes.Equal(read("quoted.ndjson"), read("trace.ndjson")) {
		t.Fatal("the trace has no event of flow 4 at h7 to rename")
	}
	for _, name := range []string{"quoted.csv", "quoted.ndjson"} {
		if got, want := report(name), report("trace.csv"); got != want {
			t.Errorf("%s reads as\n%s\nwant\n%s", name, got, want)
		}
	}

	for _, name := range []string{"counters.csv", "counters.ndjson", "paths.csv", "paths.ndjson"} {
		var b strings.Builder
		err := readTrace(&b, filepath.Join(dir, name))
		if err == nil || !strings.Contains(err.Error(), "not a packet trace or a decision trail") || b.Len() > 0 {
			t.Errorf("%s: error %v after printing %q; want a refusal and no report", name, err, b.String())
		}
	}

	// Cut mid-line, the reader names the line; cut at a line end, the report
	// says the header promised more rows.
	full := read("trace.ndjson")
	write("cut.ndjson", full[:len(full)/2])
	lines := bytes.Count(full[:len(full)/2], []byte("\n")) + 1
	var b strings.Builder
	if err := readTrace(&b, filepath.Join(dir, "cut.ndjson")); err == nil || !strings.Contains(err.Error(), "cut.ndjson:"+strconv.Itoa(lines)+": truncated") {
		t.Errorf("trace cut mid-line: error %v, want cut.ndjson:%d: truncated…", err, lines)
	}
	for _, name := range []string{"trace.csv", "trace.ndjson", "decisions.csv", "decisions.ndjson"} {
		full := read(name)
		cut := full[:bytes.LastIndexByte(full[:len(full)/2], '\n')+1]
		write("short-"+name, cut)
		rows := bytes.Count(cut, []byte("\n")) - 2 // provenance and capture lines
		if strings.HasSuffix(name, ".csv") {
			rows-- // column line
		}
		want := "WARNING: header says recorded " + map[bool]string{true: "4096", false: "1024"}[strings.HasPrefix(name, "trace")] +
			" but the file holds " + strconv.Itoa(rows) + " rows (file truncated or mixed?)"
		if got := report("short-" + name); !strings.Contains(got, want) {
			t.Errorf("short-%s report lacks %q:\n%s", name, want, got)
		}
	}
}
