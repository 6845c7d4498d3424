package telemetry

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"conga/internal/sim"
)

func decisionOpts(mode CaptureMode, capacity int) Options {
	return Options{Decisions: true, DecisionTrace: true,
		DecisionCap: capacity, DecisionMode: mode}
}

// TestDecisionTraceHead: head keeps the first cap events and counts the
// rest as suppressed; recorded+suppressed always equals seen.
func TestDecisionTraceHead(t *testing.T) {
	r := New(decisionOpts(CaptureHead, 4))
	h := r.Decisions(0, 2, 2)
	for i := 0; i < 10; i++ {
		h.Decision(sim.Time(i), 1, i%2, ReasonNewFlowlet, int64(i), []uint8{1, 2})
	}
	tr := r.DecisionTrace()
	if len(tr.events) != 4 {
		t.Fatalf("head kept %d, want 4", len(tr.events))
	}
	info := tr.Info()
	if info.Recorded != 4 || info.Suppressed != 6 || info.Seen != 10 {
		t.Fatalf("accounting: %+v", info)
	}
	evs := tr.Events()
	for i, ev := range evs {
		if ev.T != sim.Time(i) {
			t.Fatalf("head event %d has T=%d, want %d", i, ev.T, i)
		}
		if len(ev.Metrics) != 2 {
			t.Fatalf("event %d lost its metric vector", i)
		}
	}
}

// TestDecisionTraceTail: tail is a flight recorder — the last cap events
// survive, in time order.
func TestDecisionTraceTail(t *testing.T) {
	r := New(decisionOpts(CaptureTail, 4))
	h := r.Decisions(0, 2, 2)
	for i := 0; i < 10; i++ {
		h.Decision(sim.Time(i), 1, 0, ReasonExpired, -1, []uint8{uint8(i)})
	}
	tr := r.DecisionTrace()
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("tail kept %d, want 4", len(evs))
	}
	for i, ev := range evs {
		want := sim.Time(6 + i)
		if ev.T != want {
			t.Fatalf("tail event %d has T=%d, want %d", i, ev.T, want)
		}
		if len(ev.Metrics) != 1 || ev.Metrics[0] != uint8(6+i) {
			t.Fatalf("tail event %d carries wrong metrics %v", i, ev.Metrics)
		}
	}
	if info := tr.Info(); int(info.Suppressed)+info.Recorded != info.Seen {
		t.Fatalf("accounting: %+v", info)
	}
}

// TestDecisionTraceReservoir: the reservoir retains a uniform sample in
// time order with exact accounting, without touching engine randomness.
func TestDecisionTraceReservoir(t *testing.T) {
	r := New(decisionOpts(CaptureReservoir, 8))
	h := r.Decisions(0, 2, 2)
	for i := 0; i < 1000; i++ {
		h.Decision(sim.Time(i), 1, 0, ReasonNewFlowlet, 0, nil)
	}
	tr := r.DecisionTrace()
	if len(tr.events) != 8 {
		t.Fatalf("reservoir kept %d, want 8", len(tr.events))
	}
	if info := tr.Info(); int(info.Suppressed)+info.Recorded != info.Seen || info.Seen != 1000 {
		t.Fatalf("accounting: %+v", info)
	}
	evs := tr.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].T < evs[i-1].T {
			t.Fatal("reservoir events not in time order")
		}
	}
	// A sample of 8 from 1000 sequential offers that kept only the first 8
	// would mean Algorithm R never replaced anything — astronomically
	// unlikely with a working PRNG.
	if evs[len(evs)-1].T < 8 {
		t.Fatal("reservoir looks like head capture")
	}
}

// TestDecisionHooksMatrixAndStaleness covers the per-leaf aggregation:
// reason counters, the flowlets/bytes matrices, and the staleness window
// drain semantics.
func TestDecisionHooksMatrixAndStaleness(t *testing.T) {
	r := New(Options{Decisions: true})
	h := r.Decisions(0, 2, 3) // 2 uplinks, 3 leaves
	h.Decision(1, 1, 0, ReasonNewFlowlet, 100, nil)
	h.Decision(2, 1, 0, ReasonExpired, 300, nil)
	h.Decision(3, 2, 1, ReasonEvicted, -1, nil) // cold
	h.Decision(4, 1, 0, ReasonSticky, -1, nil)  // sticky: no matrix, no staleness
	h.AddBytes(0, 1, 1500)
	h.AddBytes(0, 1, 500)
	h.AddBytes(1, 2, 9000)

	if h.Sticky != 1 || h.NewFlowlet != 1 || h.Expired != 1 || h.Evicted != 1 || h.Cold != 1 {
		t.Fatalf("reason counters: %+v", *h)
	}
	mean, ok := h.TakeStaleness()
	if !ok || mean != 200 {
		t.Fatalf("staleness mean = %v ok=%v, want 200 true", mean, ok)
	}
	if _, ok := h.TakeStaleness(); ok {
		t.Fatal("window should be drained")
	}

	rows := r.PathRows()
	want := []PathRow{
		{Leaf: 0, Uplink: 0, DstLeaf: 1, Flowlets: 2, Bytes: 2000},
		{Leaf: 0, Uplink: 1, DstLeaf: 2, Flowlets: 1, Bytes: 9000},
	}
	if len(rows) != len(want) {
		t.Fatalf("rows: %+v", rows)
	}
	for i := range want {
		if rows[i] != want[i] {
			t.Fatalf("row %d = %+v, want %+v", i, rows[i], want[i])
		}
	}

	sums := r.PathSummaries()
	if len(sums) != 1 {
		t.Fatalf("summaries: %+v", sums)
	}
	sm := sums[0]
	if sm.Flowlets != 3 || sm.Bytes != 11000 {
		t.Fatalf("summary totals: %+v", sm)
	}
	// Per-uplink bytes 2000 and 9000: imbalance = 9000/5500, entropy =
	// H(2/11, 9/11)/log2(2).
	wantImb := 9000.0 / 5500.0
	p := 2000.0 / 11000.0
	wantEnt := -(p*math.Log2(p) + (1-p)*math.Log2(1-p))
	if math.Abs(sm.Imbalance-wantImb) > 1e-9 || math.Abs(sm.Entropy-wantEnt) > 1e-9 {
		t.Fatalf("balance = %v/%v, want %v/%v", sm.Imbalance, sm.Entropy, wantImb, wantEnt)
	}
}

// TestPathMatrixShape checks the heatmap projection: row per (leaf,
// uplink), column per destination leaf, byte values, and the
// flowlet-count fallback when no bytes were recorded.
func TestPathMatrixShape(t *testing.T) {
	rows := []PathRow{
		{Leaf: 0, Uplink: 0, DstLeaf: 1, Flowlets: 2, Bytes: 2000},
		{Leaf: 0, Uplink: 1, DstLeaf: 2, Flowlets: 1, Bytes: 9000},
		{Leaf: 1, Uplink: 0, DstLeaf: 0, Flowlets: 5, Bytes: 100},
	}
	rowLabels, colLabels, values, unit := PathMatrix(rows)
	if unit != "bytes" {
		t.Fatalf("unit = %q", unit)
	}
	if len(rowLabels) != 3 || len(colLabels) != 3 || len(values) != 3 {
		t.Fatalf("shape: rows %v cols %v", rowLabels, colLabels)
	}
	if rowLabels[0] != "l0 up0" || colLabels[0] != "→l0" {
		t.Fatalf("labels: %v / %v", rowLabels, colLabels)
	}
	// l0 up1 → l2 is 9000; find its cell.
	foundCol := -1
	for c, lbl := range colLabels {
		if lbl == "→l2" {
			foundCol = c
		}
	}
	if foundCol < 0 || values[1][foundCol] != 9000 {
		t.Fatalf("matrix misplaced: %v", values)
	}

	// No bytes anywhere: fall back to flowlet counts.
	for i := range rows {
		rows[i].Bytes = 0
	}
	_, _, values, unit = PathMatrix(rows)
	if unit != "flowlets" || values[0][1] != 2 {
		t.Fatalf("fallback: unit=%q values=%v", unit, values)
	}

	if _, _, v, _ := PathMatrix(nil); v != nil {
		t.Fatal("empty input should produce no matrix")
	}
}

// TestDecisionSinkAccounting flushes a registry with a decision plane and
// checks the sink files carry the capture header and summary lines.
func TestDecisionSinkAccounting(t *testing.T) {
	dir := t.TempDir()
	opts := decisionOpts(CaptureHead, 16)
	opts.Dir = dir
	r := New(opts)
	h := r.Decisions(0, 2, 2)
	h.Decision(5, 1, 1, ReasonNewFlowlet, 40, []uint8{3, 1})
	h.AddBytes(1, 1, 777)
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string][]string{
		"decisions.ndjson": {`{"capture":{"mode":"head","cap":16,"recorded":1,"seen":1,"suppressed":0}}`,
			`{"time_ns":5,"src_leaf":0,"dst_leaf":1,"uplink":1,"reason":"new-flowlet","age_ns":40,"metrics":[3,1]}`},
		"paths.ndjson": {`{"summary":{"leaf":0,`, `{"leaf":0,"uplink":1,"dst_leaf":1,"flowlets":1,"bytes":777}`},
	} {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, line := range want {
			if !strings.Contains(string(raw), line) {
				t.Fatalf("%s lacks %s:\n%s", name, line, raw)
			}
		}
	}
}
