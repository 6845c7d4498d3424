package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"conga"
)

// TestFiguresFromDir flushes one small run and drives run on its directory:
// -list names every series with its unit, a figure mixing units is refused,
// one unit draws, and the decision plane's paths file draws a heatmap.
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

	if _, err := from("-heatmap", "-out", svg); err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(svg); err != nil || !bytes.Contains(b, []byte("imbalance")) {
		t.Errorf("the heatmap (error %v) lacks the balance subtitle", err)
	}
}
