package conga

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"conga/internal/telemetry"
)

// sinkDigests flushes reg into a fresh directory and returns the SHA-256
// (first 16 hex digits) of every non-series file by name, plus one
// combined digest over all series_* files in name order.
func sinkDigests(t *testing.T, reg *TelemetryRegistry) map[string]string {
	t.Helper()
	dir := t.TempDir()
	if err := reg.FlushTo(dir); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	out := map[string]string{}
	series := sha256.New()
	for _, name := range names {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if strings.HasPrefix(name, "series_") {
			series.Write([]byte(name + "\n"))
			series.Write(b)
			continue
		}
		sum := sha256.Sum256(b)
		out[name] = hex.EncodeToString(sum[:8])
	}
	out["series_*.ndjson"] = hex.EncodeToString(series.Sum(nil)[:8])
	return out
}

// TestSinkFilesGolden pins the flushed bytes. The digests were taken at PR
// 12 from the fmt.Fprintf emitters (ten hand-written functions, one per
// sink × record type) that the schema-driven row writer replaced: every
// file a TelemetryAll run flushes — counters, every series, packet trace,
// decision trace, path matrix, with and without a provenance line — must
// come out byte for byte the same, once each, as NDJSON. The run's own
// probes never need escaping, so the test adds a link, a series and a trace
// site whose names do, and series values JSON cannot carry (NaN, +Inf).
// "series_*.ndjson" is the NDJSON half of the old combined series digest.
func TestSinkFilesGolden(t *testing.T) {
	skipSingleGoroutine(t)
	opts := TelemetryAll("")
	opts.TraceCap = 1 << 18 // room for the whole run plus the odd site below
	res, err := RunFCT(FCTConfig{
		Topology: Topology{Leaves: 2, Spines: 2, HostsPerLeaf: 4, LinksPerSpine: 1,
			AccessGbps: 10, FabricGbps: 10},
		Scheme:    SchemeCONGA,
		Workload:  WorkloadEnterprise,
		Load:      0.6,
		Duration:  4 * time.Millisecond,
		MaxFlows:  40,
		Seed:      7,
		Telemetry: opts,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := res.Telemetry
	const odd = "odd,\"name\"\\ \n\t\x01é"
	reg.Link(odd).Enqueues = 3
	s := reg.NewSeries("q/"+odd, "by\"tes")
	s.Observe(1, math.NaN())
	s.Observe(2, math.Inf(1))
	s.Observe(3, 1.5e-7)
	s.Observe(4, -12345678.9)
	reg.Trace().Record(5, telemetry.TraceDrop, odd, 1<<40, 1, 2, 3, 4, -1, 0)
	if info := reg.Trace().Info(); info.Suppressed != 0 {
		t.Fatalf("trace suppressed %d events; raise TraceCap so the odd site is recorded", info.Suppressed)
	}

	want := map[string]map[string]string{
		"": {
			"counters.ndjson":  "99b94fe9f81e9bbb",
			"decisions.ndjson": "257aef626c4f42e0",
			"paths.ndjson":     "edc8882669400c88",
			"series_*.ndjson":  "3e12e26d7e0a10b1",
			"trace.ndjson":     "94c613d7749b23a3",
		},
		"replay \"x\", v1\\": {
			"counters.ndjson":  "96dee9f0a52870e2",
			"decisions.ndjson": "a9e71ffcd9b409e1",
			"paths.ndjson":     "ffc3378ae20cd31a",
			"series_*.ndjson":  "3e12e26d7e0a10b1",
			"trace.ndjson":     "b3653d23bb18225a",
		},
	}
	for prov, golden := range want {
		reg.SetProvenance(prov)
		got := sinkDigests(t, reg)
		if len(got) != len(golden) {
			t.Errorf("provenance %q: flushed %d file classes, want %d: %v", prov, len(got), len(golden), got)
		}
		for name, sum := range golden {
			if got[name] != sum {
				t.Errorf("provenance %q: %s digest %s, want %s", prov, name, got[name], sum)
			}
		}
	}
}
