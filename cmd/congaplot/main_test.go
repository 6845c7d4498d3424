package main

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"conga"
)

// TestSameFiguresFromDirAndLive flushes one small run and drives run on its
// directory and on the run's finished live endpoint, which serve the same
// NDJSON. What congaplot lists, refuses and draws must not depend on which
// it was given.
func TestSameFiguresFromDirAndLive(t *testing.T) {
	dir := t.TempDir()
	tel := conga.TelemetryAll(dir)
	tel.Hub = conga.NewTelemetryHub()
	srv := httptest.NewServer(tel.Hub.Handler())
	defer srv.Close()
	if _, err := conga.RunFCT(conga.FCTConfig{
		Topology: conga.Topology{Leaves: 2, Spines: 2, HostsPerLeaf: 4, LinksPerSpine: 1,
			AccessGbps: 10, FabricGbps: 10},
		Scheme:    conga.SchemeCONGA,
		Workload:  conga.WorkloadEnterprise,
		Load:      0.6,
		Duration:  4 * time.Millisecond,
		MaxFlows:  40,
		Seed:      7,
		Telemetry: tel,
	}); err != nil {
		t.Fatal(err)
	}
	sources := map[string][]string{"dir": {"-dir", dir}, "live": {"-url", srv.URL}}
	from := func(name string, args ...string) (string, error) {
		var b bytes.Buffer
		err := run(append(append([]string(nil), sources[name]...), args...), &b)
		return b.String(), err
	}

	list, err := from("dir", "-list")
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
	if got, err := from("live", "-list"); err != nil || got != list {
		t.Errorf("-list of the live endpoint (error %v):\n%s\nwant the directory's:\n%s", err, got, list)
	}

	svg := filepath.Join(t.TempDir(), "out.svg")
	var queues []byte
	for _, name := range []string{"dir", "live"} {
		if _, err := from(name, "-series", ".", "-out", svg); err == nil || !strings.Contains(err.Error(), "mix units (bytes, ") {
			t.Errorf("%s: plotting every series on one axis: error %v, want a mixed-units refusal", name, err)
		}
		if got, err := from(name, "-series", `^queue\.l0`, "-out", svg); err != nil || !strings.Contains(got, "(2 series)") {
			t.Errorf("%s: plotting the two leaf-0 queues: %q, error %v", name, got, err)
		}
		b, err := os.ReadFile(svg)
		if err != nil {
			t.Fatal(err)
		}
		if queues == nil {
			queues = b
		} else if !bytes.Equal(b, queues) {
			t.Errorf("%s: the leaf-0 queue figure (%d bytes) differs from the directory's (%d bytes)", name, len(b), len(queues))
		}
	}

	if _, err := from("dir", "-heatmap", "-out", svg); err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(svg); err != nil || !bytes.Contains(b, []byte("imbalance")) {
		t.Errorf("the heatmap (error %v) lacks the balance subtitle", err)
	}
}
