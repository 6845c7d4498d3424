package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"conga"
)

// TestReadReportsMatchGolden flushes one small recorded run and reads back
// its packet trace and its decision trail. Each must print, below the line
// naming the file, the report in testdata: what the hand-written CSV readers
// printed for these files before telemetry.ReadSinkFile replaced them,
// re-pinned when receivers moved to delayed ACKs. Then
// it feeds readTrace what those readers got wrong — a decision trail under
// another name, a trace whose "where" needs quoting, sink files that are
// neither table, a trace cut short — and a CSV copy of the kind flushes
// wrote before NDJSON became the only encoding.
func TestReadReportsMatchGolden(t *testing.T) {
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
		if got := report(base + ".ndjson"); got != string(golden) {
			t.Errorf("%s.ndjson report:\n%s\nwant:\n%s", base, got, golden)
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
	write("audit.txt", read("decisions.ndjson"))
	if got, want := report("audit.txt"), report("decisions.ndjson"); got != want {
		t.Errorf("a renamed decisions.ndjson reads as\n%s\nwant the decision trail\n%s", got, want)
	}

	// Every event of flow 4 at h7 moves to a site named `a,"b"`: same flows,
	// same report.
	write("quoted.ndjson", bytes.ReplaceAll(read("trace.ndjson"), []byte(`"where":"h7","flow":4,`), []byte(`"where":"a,\"b\"","flow":4,`)))
	if bytes.Equal(read("quoted.ndjson"), read("trace.ndjson")) {
		t.Fatal("the trace has no event of flow 4 at h7 to rename")
	}
	if got, want := report("quoted.ndjson"), report("trace.ndjson"); got != want {
		t.Errorf("quoted.ndjson reads as\n%s\nwant\n%s", got, want)
	}

	for _, name := range []string{"counters.ndjson", "paths.ndjson"} {
		var b strings.Builder
		err := readTrace(&b, filepath.Join(dir, name))
		if err == nil || !strings.Contains(err.Error(), "not a packet trace or a decision trail") || b.Len() > 0 {
			t.Errorf("%s: error %v after printing %q; want a refusal and no report", name, err, b.String())
		}
	}

	write("trace.csv", []byte("time_ns,event,where,flow,src,dst,sport,dport,seq,payload\n5,send,h4,0,4,2,10000,80,0,597\n"))
	if err := readTrace(io.Discard, filepath.Join(dir, "trace.csv")); err == nil || !strings.Contains(err.Error(), "trace.csv:1: does not open with '{'") {
		t.Errorf("a CSV trace: error %v, want trace.csv:1: does not open with '{'…", err)
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
	for _, name := range []string{"trace.ndjson", "decisions.ndjson"} {
		full := read(name)
		cut := full[:bytes.LastIndexByte(full[:len(full)/2], '\n')+1]
		write("short-"+name, cut)
		rows := bytes.Count(cut, []byte("\n")) - 2 // provenance and capture lines
		want := "WARNING: header says recorded " + map[bool]string{true: "4096", false: "1024"}[strings.HasPrefix(name, "trace")] +
			" but the file holds " + strconv.Itoa(rows) + " rows (file truncated or mixed?)"
		if got := report("short-" + name); !strings.Contains(got, want) {
			t.Errorf("short-%s report lacks %q:\n%s", name, want, got)
		}
	}
}
