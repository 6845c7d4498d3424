package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"conga"
	"conga/internal/telemetry"
)

// TestFiguresFromDir flushes one small run and drives run on its directory:
// -list names every series with its unit, a figure mixing units is refused,
// one unit draws, -summary reports the packet trace but not beside another
// flag, and the decision plane's paths file draws a heatmap.
func TestFiguresFromDir(t *testing.T) {
	dir := t.TempDir()
	if _, err := conga.RunFCT(conga.FCTConfig{
		Topology: conga.Topology{Leaves: 2, Spines: 2, HostsPerLeaf: 4, LinksPerSpine: 1,
			AccessGbps: 10, FabricGbps: 10},
		Scheme:    conga.SchemeCONGA,
		Workload:  conga.WorkloadEnterprise,
		Load:      0.6,
		Duration:  4 * time.Millisecond,
		MaxFlows:  40,
		Seed:      7,
		Telemetry: conga.TelemetryAll(dir),
	}); err != nil {
		t.Fatal(err)
	}
	from := func(args ...string) (string, error) {
		var b bytes.Buffer
		err := run(append([]string{"-dir", dir}, args...), &b)
		return b.String(), err
	}

	list, err := from("-list")
	if err != nil {
		t.Fatal(err)
	}
	var queue string
	for _, line := range strings.Split(list, "\n") {
		if strings.HasPrefix(line, "queue.l0->s0.0 ") {
			queue = line
		}
	}
	if !strings.HasSuffix(queue, "unit=bytes") {
		t.Errorf("the directory listing has no line for queue.l0->s0.0 in bytes:\n%s", list)
	}

	svg := filepath.Join(t.TempDir(), "out.svg")
	if _, err := from("-series", ".", "-out", svg); err == nil || !strings.Contains(err.Error(), "mix units (bytes, ") {
		t.Errorf("plotting every series on one axis: error %v, want a mixed-units refusal", err)
	}
	if got, err := from("-series", `^queue\.l0`, "-out", svg); err != nil || !strings.Contains(got, "(2 series)") {
		t.Errorf("plotting the two leaf-0 queues: %q, error %v", got, err)
	}
	if b, err := os.ReadFile(svg); err != nil || !bytes.Contains(b, []byte("queue.l0-&gt;s0.0")) {
		t.Errorf("the leaf-0 queue figure (error %v) does not name queue.l0->s0.0", err)
	}

	var summary bytes.Buffer
	if err := run([]string{"-summary", filepath.Join(dir, "trace.ndjson")}, &summary); err != nil || !strings.HasPrefix(summary.String(), "trace: ") {
		t.Errorf("-summary of the packet trace: %q, error %v", summary.String(), err)
	}
	if _, err := from("-summary", filepath.Join(dir, "trace.ndjson")); err == nil || !strings.Contains(err.Error(), "no other flag") {
		t.Errorf("-summary with -dir: error %v, want a refusal", err)
	}

	if _, err := from("-heatmap", "-out", svg); err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(svg); err != nil || !bytes.Contains(b, []byte("imbalance")) {
		t.Errorf("the heatmap (error %v) lacks the balance subtitle", err)
	}
}

// TestListNamesEmptySeries: a series that took no points flushes as an
// empty file; -list still names it, with 0 points, and plotting it alone is
// refused.
func TestListNamesEmptySeries(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.New(telemetry.Options{Dir: dir})
	reg.NewSeries("queue.l0->s0.0", "bytes").Observe(1000, 3000)
	reg.NewSeries("staleness.leaf1", "ns")
	if err := reg.Flush(); err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := run([]string{"-dir", dir, "-list"}, &b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[1], "staleness.leaf1 ") || !strings.Contains(lines[1], " 0 points  unit=") {
		t.Errorf("-list of one series with points and one without:\n%s", b.String())
	}
	err := run([]string{"-dir", dir, "-series", "staleness", "-out", filepath.Join(t.TempDir(), "out.svg")}, &b)
	if err == nil || !strings.Contains(err.Error(), "hold no points") {
		t.Errorf("plotting the empty series: error %v, want a refusal", err)
	}
}
