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

// TestSameFiguresFromEitherEncoding flushes one small run and drives run on
// three copies of its directory — the CSV files only, the NDJSON files only,
// and both — and on the run's finished live endpoint. What congaplot lists,
// refuses and draws must not depend on which it was given.
func TestSameFiguresFromEitherEncoding(t *testing.T) {
	both := t.TempDir()
	tel := conga.TelemetryAll(both)
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
	sources := map[string][]string{"both": {"-dir", both}, "live": {"-url", srv.URL}}
	for _, ext := range []string{".csv", ".ndjson"} {
		dir := t.TempDir()
		sources[ext] = []string{"-dir", dir}
		files, _ := filepath.Glob(filepath.Join(both, "*"+ext))
		for _, f := range files {
			b, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, filepath.Base(f)), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	out := func(args ...string) (string, error) {
		var b bytes.Buffer
		err := run(args, &b)
		return b.String(), err
	}

	from := func(name string, args ...string) (string, error) {
		return out(append(append([]string(nil), sources[name]...), args...)...)
	}
	list, err := from(".csv", "-list")
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
		t.Errorf("the CSV-only listing has no line for queue.l0->s0.0 in bytes:\n%s", list)
	}
	for _, name := range []string{".ndjson", "both", "live"} {
		if got, err := from(name, "-list"); err != nil || got != list {
			t.Errorf("-list of %s (error %v):\n%s\nwant the CSV-only listing:\n%s", name, err, got, list)
		}
	}

	svg := filepath.Join(t.TempDir(), "out.svg")
	var queues []byte
	for _, name := range []string{".csv", ".ndjson", "both", "live"} {
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
			t.Errorf("%s: the leaf-0 queue figure (%d bytes) differs from the CSV files' (%d bytes)", name, len(b), len(queues))
		}
	}

	var heat [][]byte
	for _, ext := range []string{".csv", ".ndjson"} {
		if _, err := from(ext, "-heatmap", "-out", svg); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(svg)
		if err != nil {
			t.Fatal(err)
		}
		heat = append(heat, b)
	}
	if !bytes.Equal(heat[0], heat[1]) || !bytes.Contains(heat[0], []byte("imbalance")) {
		t.Errorf("the heatmap from paths.csv (%d bytes) and from paths.ndjson (%d bytes) differ, or lack the balance subtitle", len(heat[0]), len(heat[1]))
	}
}
