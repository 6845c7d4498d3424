package conga

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
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
// combined digest per encoding over all series_* files in name order.
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
	series := map[string]hash.Hash{".csv": sha256.New(), ".ndjson": sha256.New()}
	for _, name := range names {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if strings.HasPrefix(name, "series_") {
			h := series[filepath.Ext(name)]
			h.Write([]byte(name + "\n"))
			h.Write(b)
			continue
		}
		sum := sha256.Sum256(b)
		out[name] = hex.EncodeToString(sum[:8])
	}
	for ext, h := range series {
		out["series_*"+ext] = hex.EncodeToString(h.Sum(nil)[:8])
	}
	return out
}

// TestSinkFilesGolden pins the flushed bytes. The digests were taken at PR
// 12 from the fmt.Fprintf emitters (ten hand-written functions, one per
// sink × record type) that the schema-driven row writer replaced: every
// file a TelemetryAll run flushes — counters, every series, packet trace,
// decision trace, path matrix, as CSV and NDJSON, with and without a
// provenance line — must come out byte for byte the same. The run's own
// probes never need escaping, so the test adds a link, a series and a trace
// site whose names do, and series values JSON cannot carry (NaN, +Inf).
// The one digest taken later is "series_*.csv", re-taken at PR 21 when each
// series CSV gained its "# probe=" and "# unit=" lines; "series_*.ndjson" is
// the NDJSON half of the old combined series digest, computed at PR 20.
func TestSinkFilesGolden(t *testing.T) {
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
			"counters.csv":     "a208e51b2471391d",
			"counters.ndjson":  "99b94fe9f81e9bbb",
			"decisions.csv":    "568e10670b02f4d4",
			"decisions.ndjson": "257aef626c4f42e0",
			"paths.csv":        "22be2db33115fe30",
			"paths.ndjson":     "edc8882669400c88",
			"series_*.csv":     "fa440749f3409151",
			"series_*.ndjson":  "3e12e26d7e0a10b1",
			"trace.csv":        "cd4f81333e479afd",
			"trace.ndjson":     "94c613d7749b23a3",
		},
		"replay \"x\", v1\\": {
			"counters.csv":     "b09f9460e981e606",
			"counters.ndjson":  "96dee9f0a52870e2",
			"decisions.csv":    "2a9e702509c5e2c0",
			"decisions.ndjson": "a9e71ffcd9b409e1",
			"paths.csv":        "9cbceb9253ba4f32",
			"paths.ndjson":     "ffc3378ae20cd31a",
			"series_*.csv":     "fa440749f3409151",
			"series_*.ndjson":  "3e12e26d7e0a10b1",
			"trace.csv":        "24fb05ace6586cc0",
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
