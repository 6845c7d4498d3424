package telemetry

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"conga/internal/sim"
)

// --- nil safety -----------------------------------------------------------

func TestNilRegistryIsOff(t *testing.T) {
	var r *Registry
	if r.Link("a") != nil || r.TCP() != nil || r.Trace() != nil || r.NewSeries("x", "u") != nil {
		t.Fatal("nil registry handed out a live hook")
	}
	if r.CounterRows() != nil || r.AllSeries() != nil {
		t.Fatal("nil registry returned rows")
	}
	r.Collect()
	r.RecordFlowlets(0, 1, 2, 3)
	if err := r.Flush(); err != nil {
		t.Fatalf("nil Flush: %v", err)
	}
	var s *Series
	s.Observe(1, 2)
	var tr *PacketTrace
	tr.Record(1, TraceSend, "h0", 1, 0, 1, 2, 3, 4, 5)
	if tr.Len() != 0 || tr.Events() != nil {
		t.Fatal("nil trace recorded")
	}
}

// TestDisabledOptionsHandOutNil: the zero Options switches off every
// optional probe — the packet trace, the decision hooks and their audit
// trail — while the counters and series every registry has stay live.
func TestDisabledOptionsHandOutNil(t *testing.T) {
	r := New(Options{})
	if r.Trace() != nil || r.Decisions(0, 2, 2) != nil || r.DecisionTrace() != nil {
		t.Fatal("disabled probe handed out a live hook")
	}
	if r.Link("a") == nil || r.TCP() == nil || r.NewSeries("x", "u") == nil {
		t.Fatal("a registry without options handed out no counters or series")
	}
}

// --- series downsampling --------------------------------------------------

// TestSeriesDownsampling drives a series well past its capacity and checks
// the invariants the probe design rests on: memory stays bounded, samples
// stay time-ordered on a uniform stride grid, and the buffer spans the whole
// run rather than only its head or tail.
func TestSeriesDownsampling(t *testing.T) {
	const capacity = 8
	r := New(Options{SeriesCap: capacity})
	s := r.NewSeries("q", "bytes")
	const total = 1000
	for i := 0; i < total; i++ {
		s.Observe(sim.Time(i*10), float64(i))
	}
	pts, stride := s.pts, s.stride
	if len(pts) > capacity {
		t.Fatalf("series grew to %d > cap %d", len(pts), capacity)
	}
	if len(pts) < capacity/2 {
		t.Fatalf("series kept only %d of cap %d points", len(pts), capacity)
	}
	if stride < total/capacity {
		t.Fatalf("stride %d too small to have bounded %d observations", stride, total)
	}
	for i := 1; i < len(pts); i++ {
		if gap := pts[i].T - pts[i-1].T; gap != sim.Time(stride*10) {
			t.Fatalf("gap %v between points %d and %d, want uniform %v", gap, i-1, i, stride*10)
		}
	}
	if pts[0].T != 0 {
		t.Fatalf("first retained point at %v, want 0 (run start)", pts[0].T)
	}
	if last := pts[len(pts)-1]; total-int(last.V) > 2*stride {
		t.Fatalf("last retained point %v too far from the end of the run", last)
	}
}

func TestSeriesCapForcedEven(t *testing.T) {
	r := New(Options{SeriesCap: 7})
	if got := r.opts.SeriesCap; got != 8 {
		t.Fatalf("SeriesCap 7 normalized to %d, want 8", got)
	}
}

func TestNewSeriesSameNameSameBuffer(t *testing.T) {
	r := New(Options{})
	a, b := r.NewSeries("q", "bytes"), r.NewSeries("q", "bytes")
	if a != b {
		t.Fatal("same name returned distinct series")
	}
	if r.byName["q"] != a {
		t.Fatal("name index holds another buffer")
	}
	if len(r.AllSeries()) != 1 {
		t.Fatalf("AllSeries has %d entries, want 1", len(r.AllSeries()))
	}
}

// --- packet trace ---------------------------------------------------------

func TestTraceFilter(t *testing.T) {
	record := func(tr *PacketTrace) {
		tr.Record(1, TraceSend, "h0", 7, 0, 1, 100, 200, 0, 1460)
		tr.Record(2, TraceSend, "h0", 8, 0, 1, 100, 200, 0, 1460) // other flow
		tr.Record(3, TraceSend, "h2", 7, 2, 1, 100, 200, 0, 1460) // other src
		tr.Record(4, TraceRecv, "h1", 7, 0, 1, 100, 201, 0, 1460) // other dport
	}
	cases := []struct {
		name   string
		filter Filter
		want   int
	}{
		{"zero value matches all", Filter{}, 4},
		{"match-all", MatchAll(), 4},
		{"by flow", Filter{FlowID: 7, SrcHost: -1, DstHost: -1, SrcPort: -1, DstPort: -1}, 3},
		{"by src host", Filter{FlowID: -1, SrcHost: 0, DstHost: -1, SrcPort: -1, DstPort: -1}, 3},
		{"by dst port", Filter{FlowID: -1, SrcHost: -1, DstHost: -1, SrcPort: -1, DstPort: 200}, 3},
		{"flow and src", Filter{FlowID: 7, SrcHost: 0, DstHost: -1, SrcPort: -1, DstPort: -1}, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr := newPacketTrace(16, c.filter.normalized(), CaptureHead, 0, 0)
			record(tr)
			if tr.Len() != c.want {
				t.Fatalf("recorded %d events, want %d", tr.Len(), c.want)
			}
		})
	}
}

func TestTraceCapAndSuppressed(t *testing.T) {
	tr := newPacketTrace(4, MatchAll(), CaptureHead, 0, 0)
	for i := 0; i < 10; i++ {
		tr.Record(sim.Time(i), TraceDrop, "l0", 1, 0, 1, 1, 1, 0, 1)
	}
	if tr.Len() != 4 {
		t.Fatalf("buffer holds %d, want cap 4", tr.Len())
	}
	if tr.Suppressed != 6 {
		t.Fatalf("Suppressed %d, want 6", tr.Suppressed)
	}
}

func TestTraceKindString(t *testing.T) {
	if TraceSend.String() != "send" || TraceRecv.String() != "recv" || TraceDrop.String() != "drop" {
		t.Fatal("TraceKind names wrong")
	}
}

// --- counters and rows ----------------------------------------------------

func TestCounterRowsDeterministic(t *testing.T) {
	build := func() *Registry {
		r := New(Options{})
		r.Link("l0->s0").Enqueues = 10
		r.Link("l1->s0").Drops = 2
		r.TCP().Retransmits = 3
		r.RecordFlowlets(1, 5, 4, 0)
		r.RecordFlowlets(0, 7, 6, 1)
		return r
	}
	a, b := build().CounterRows(), build().CounterRows()
	if len(a) != len(b) {
		t.Fatalf("row counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	// Flowlet rows must come out sorted by leaf regardless of record order.
	var flowletNames []string
	for _, row := range a {
		if row.Group == "flowlet" && row.Counter == "creates" {
			flowletNames = append(flowletNames, row.Name)
		}
	}
	if len(flowletNames) != 2 || flowletNames[0] != "leaf0" || flowletNames[1] != "leaf1" {
		t.Fatalf("flowlet rows out of order: %v", flowletNames)
	}
}

func TestRecordFlowletsOverwrites(t *testing.T) {
	r := New(Options{})
	r.RecordFlowlets(0, 1, 1, 0)
	r.RecordFlowlets(0, 9, 8, 7)
	c, e, v := r.FlowletTotals()
	if c != 9 || e != 8 || v != 7 {
		t.Fatalf("totals %d/%d/%d after overwrite, want 9/8/7", c, e, v)
	}
}

func TestTotals(t *testing.T) {
	r := New(Options{})
	r.Link("a").Enqueues = 5
	r.Link("a").Dequeues = 4
	r.Link("b").Drops = 1
	r.Link("b").CEMarks = 2
	enq, deq, drops, ce := r.LinkTotals()
	if enq != 5 || deq != 4 || drops != 1 || ce != 2 {
		t.Fatalf("link totals %d/%d/%d/%d", enq, deq, drops, ce)
	}
	r.TCP().Timeouts = 6
	if r.TCPTotals().Timeouts != 6 {
		t.Fatal("TCP totals not visible")
	}
}

func TestCollectorsRunOnCollect(t *testing.T) {
	r := New(Options{})
	n := 0
	r.AddCollector(func() { n++; r.RecordFlowlets(0, uint64(n), 0, 0) })
	r.Collect()
	r.Collect()
	if n != 2 {
		t.Fatalf("collector ran %d times, want 2", n)
	}
	if c, _, _ := r.FlowletTotals(); c != 2 {
		t.Fatalf("collector result not overwritten: creates %d, want 2", c)
	}
}

// --- sinks ----------------------------------------------------------------

// TestFlushWritesEachFileOnce: a flush writes each sink file once, as NDJSON.
func TestFlushWritesEachFileOnce(t *testing.T) {
	dir := t.TempDir()
	r := New(All(filepath.Join(dir, "out")))
	r.Link("l0->s0.0").Enqueues = 42
	r.TCP().Retransmits = 7
	s := r.NewSeries("queue.l0->s0.0", "bytes")
	s.Observe(10, 1.5)
	s.Observe(20, 2.5)
	r.Trace().Record(5, TraceSend, "h0", 1, 0, 1, 100, 200, 0, 1460)
	if err := r.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	read := func(name string) string {
		b, err := os.ReadFile(filepath.Join(dir, "out", name))
		if err != nil {
			t.Fatalf("read %s: %v", name, err)
		}
		return string(b)
	}
	if got := read("counters.ndjson"); !strings.Contains(got, `{"group":"link","name":"l0->s0.0","counter":"enqueues","value":42}`) ||
		!strings.Contains(got, `{"group":"tcp","name":"","counter":"retransmits","value":7}`) {
		t.Fatalf("counters.ndjson missing rows:\n%s", got)
	}
	// "->" sanitizes to "-" in file names.
	if got := read("series_queue.l0-s0.0.ndjson"); !strings.Contains(got, `"time_ns":10,"value":1.5}`) ||
		!strings.Contains(got, `"time_ns":20,"value":2.5}`) {
		t.Fatalf("series ndjson wrong:\n%s", got)
	}
	if got := read("trace.ndjson"); !strings.Contains(got, `"event":"send","where":"h0"`) {
		t.Fatalf("trace.ndjson wrong:\n%s", got)
	}
	entries, err := os.ReadDir(filepath.Join(dir, "out"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".ndjson" {
			t.Errorf("flush wrote %s, want only .ndjson files", e.Name())
		}
	}
}

func TestFlushWithoutDirIsNoop(t *testing.T) {
	r := New(Options{})
	r.Link("a").Enqueues = 1
	if err := r.Flush(); err != nil {
		t.Fatalf("Flush with no dir: %v", err)
	}
}

func TestSanitizeName(t *testing.T) {
	cases := map[string]string{
		"queue.l0->s0.0": "queue.l0-s0.0",
		"plain":          "plain",
		"a b/c":          "a-b-c",
	}
	for in, want := range cases {
		if got := sanitizeName(in); got != want {
			t.Fatalf("sanitizeName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestProvenanceInSinks: a registry stamped with replay provenance carries
// it into the counters and trace files as a leading meta object, while
// series files stay clean data rows.
func TestProvenanceInSinks(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "out")
	r := New(All(out))
	r.SetProvenance("replay harness=fct scheme=conga workload=enterprise load=0.5 seed=7 flows=42 fp=0123456789abcdef")
	r.Link("l0->s0.0").Enqueues = 1
	s := r.NewSeries("queue.l0->s0.0", "bytes")
	s.Observe(10, 1.5)
	r.Trace().Record(5, TraceSend, "h0", 1, 0, 1, 100, 200, 0, 1460)
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}

	read := func(name string) string {
		b, err := os.ReadFile(filepath.Join(out, name))
		if err != nil {
			t.Fatalf("read %s: %v", name, err)
		}
		return string(b)
	}
	for _, name := range []string{"counters.ndjson", "trace.ndjson"} {
		if got := read(name); !strings.HasPrefix(got, `{"provenance":"replay harness=fct`) {
			t.Errorf("%s lacks provenance meta line:\n%.120s", name, got)
		}
	}
	if got := read("series_queue.l0-s0.0.ndjson"); strings.Contains(got, "provenance") {
		t.Errorf("series file polluted with provenance:\n%.120s", got)
	}

	// Unstamped registries emit exactly the old format.
	r2 := New(All(filepath.Join(dir, "out2")))
	r2.Link("a").Enqueues = 1
	if err := r2.Flush(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "out2", "counters.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(b), `{"group":`) {
		t.Errorf("unstamped counters.ndjson changed:\n%.120s", b)
	}

	// nil-safety: stamping a nil registry is a no-op, not a panic.
	var nilReg *Registry
	nilReg.SetProvenance("x")
}
