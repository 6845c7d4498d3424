package main

import (
	"encoding/json"
	"reflect"
	"testing"
)

// TestVerdict pins the verdict rule on fixed samples: a gain needs ≥ 9/10
// wins and a median shift past the base's interquartile range, a
// regression a median worse by more than the bound, and anything else is
// unresolved.
func TestVerdict(t *testing.T) {
	base := []float64{1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98} // IQR 0.98–1.02
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	nineWins := scale(base, 0.9)
	nineWins[3] = 1.05 // one pair lost: 9/10 still wins
	eightWins := append([]float64(nil), nineWins...)
	eightWins[5] = 1.10
	rows := []struct {
		name         string
		base, change []float64
		better, want string
		wantWins     int
	}{
		{"10/10 lower, past the IQR", base, scale(base, 0.9), "lower", "gain", 10},
		{"9/10 lower, past the IQR", base, nineWins, "lower", "gain", 9},
		{"8/10 lower", base, eightWins, "lower", "unresolved", 8},
		{"10/10 lower, inside the IQR", base, scale(base, 0.995), "lower", "unresolved", 10},
		{"10/10 higher is better", base, scale(base, 1.1), "higher", "gain", 10},
		{"30 % worse, bound 25 %", base, scale(base, 1.3), "lower", "regressed", 0},
		{"20 % worse, bound 25 %", base, scale(base, 1.2), "lower", "unresolved", 0},
		{"30 % lower when higher is better", base, scale(base, 0.7), "higher", "regressed", 0},
	}
	for _, r := range rows {
		if got := wins(r.base, r.change, r.better); got != r.wantWins {
			t.Errorf("%s: %d wins, want %d", r.name, got, r.wantWins)
		}
		if got := verdict(r.base, r.change, r.better, 0.25); got != r.want {
			t.Errorf("%s: verdict %q, want %q", r.name, got, r.want)
		}
	}
	if q := quartiles([]float64{4, 1, 3, 2, 5}); q != [3]float64{2, 3, 4} {
		t.Errorf("quartiles of 1..5 = %v, want [2 3 4]", q)
	}
}

// TestRecordCarriesManifest decodes one JSONL record as run writes it: the
// manifest's fields sit under "manifest" with their names, and the CPU model
// is read off a /proc/cpuinfo line.
func TestRecordCarriesManifest(t *testing.T) {
	m := cpuModel.FindSubmatch([]byte("processor\t: 0\nvendor_id\t: GenuineIntel\nmodel name\t: Intel(R) Xeon(R) Processor\n"))
	if m == nil || string(m[1]) != "Intel(R) Xeon(R) Processor" {
		t.Fatalf("cpu model %q, want Intel(R) Xeon(R) Processor", m)
	}
	rec := runRecord{Workload: "incast", Side: "change", Metrics: map[string]float64{"wall_s": 1.5},
		Manifest: manifest{Rev: "5e63a72", Dirty: true, Overlay: "9f86d0", Go: "go1.24.0", GOMAXPROCS: 2, CPU: string(m[1])}}
	line, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Side     string
		Metrics  map[string]float64
		Manifest map[string]any
	}
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatal(err)
	}
	want := map[string]any{"rev": "5e63a72", "dirty": true, "overlay_sha256": "9f86d0", "go": "go1.24.0",
		"gomaxprocs": 2.0, "cpu": "Intel(R) Xeon(R) Processor"}
	if got.Side != "change" || got.Metrics["wall_s"] != 1.5 || !reflect.DeepEqual(got.Manifest, want) {
		t.Errorf("decoded %s as %+v, want side change, wall_s 1.5 and manifest %v", line, got, want)
	}
}
