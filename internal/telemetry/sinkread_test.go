package telemetry

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// odd is a name that needs every escape: JSON's (quote, backslash, newline,
// control bytes), the "->" sanitizeName collapses, and two bytes that are
// not UTF-8.
const odd = "odd,\"na\"\"me\"\\ \\n\n\t\x01é->l0\xff\xfe"

var nan, inf = math.NaN(), math.Inf(1)

// roundTripCases is one or more files of every table, between them holding
// each thing the encoder treats specially.
func roundTripCases() map[string]SinkFile {
	cases := map[string]SinkFile{
		"counters": {Table: CounterTable, Provenance: `replay "x", v1\`, Counters: []CounterRow{
			{"link", "l0->s0.0", "enqueues", 42}, {"link", odd, "drops", math.MaxUint64}, {"tcp", "", "timeouts", 0}}},
		"counters-empty":            {Table: CounterTable},
		"counters-empty-provenance": {Table: CounterTable, Provenance: "p"},
		"series": {Table: SeriesTable, Probe: "queue." + odd, Unit: "by\"tes\\", Points: []Point{
			{1, nan}, {2, inf}, {3, -inf}, {4, 1.5e-7}, {5, -12345678.9}, {math.MaxInt64, 0}}},
		"series-empty": {Table: SeriesTable, Probe: "queue.l0->s0.0", Unit: "bytes"},
		"cdf": {Table: CDFTable, Probe: "queue_" + odd, Unit: "bytes", CDF: [][2]float64{
			{0, 0.25}, {1500, 0.5}, {nan, 0.75}, {inf, 1}}},
		"cdf-empty": {Table: CDFTable, Probe: "imbalance", Unit: "ratio"},
		"decisions": {Table: DecisionTable, Provenance: "p",
			Capture: &CaptureInfo{Mode: CaptureReservoir, Cap: 4, Recorded: 3, Seen: 9, Suppressed: 6},
			Decisions: []DecisionEvent{
				{T: 10, SrcLeaf: 0, DstLeaf: 1, Uplink: 2, Reason: ReasonSticky, AgeNs: -1},
				{T: 20, SrcLeaf: 1, DstLeaf: 0, Uplink: 0, Reason: ReasonNewFlowlet, AgeNs: -1, Metrics: []uint8{3, 0, 7, 255}},
				{T: 30, SrcLeaf: 1, DstLeaf: 0, Uplink: -1, Reason: ReasonEvicted, AgeNs: 1746, Metrics: []uint8{1}},
				{T: 40, SrcLeaf: 1, DstLeaf: 0, Uplink: 3, Reason: ReasonExpired, AgeNs: 0, Metrics: []uint8{0, 0}}}},
		"decisions-empty": {Table: DecisionTable, Capture: &CaptureInfo{Mode: CaptureTail, Cap: 8}},
		"paths": {Table: PathTable, Provenance: "p",
			Summaries: []PathSummary{{0, 12, 345, 1.25, 0.9}, {1, 1, 0, nan, inf}},
			Paths:     []PathRow{{0, 0, 1, 7, 200}, {0, 1, 1, 5, 145}, {1, 3, 0, 1, 0}}},
		"paths-empty":         {Table: PathTable, Provenance: "p"},
		"trace-no-header":     {Table: TraceTable, Trace: []TraceEvent{{T: 1, Kind: TraceRecv, Where: "h1"}}},
		"decisions-no-header": {Table: DecisionTable, Decisions: []DecisionEvent{{T: 1, Reason: ReasonSticky, AgeNs: -1}}},
	}
	events := []TraceEvent{
		{T: 5, Kind: TraceSend, Where: "h4", FlowID: 1 << 40, Src: 4, Dst: 2, SrcPort: 10000, DstPort: 80, Seq: 0, Payload: 597},
		{T: 6, Kind: TraceDrop, Where: odd, FlowID: 7, Src: 1, Dst: 2, SrcPort: 3, DstPort: 4, Seq: -1, Payload: 0},
		{T: 7, Kind: TraceRecv, Where: "l0->s0.0", FlowID: 7, Src: 1, Dst: 2, SrcPort: 3, DstPort: 4, Seq: 1460, Payload: 1460},
	}
	for _, mode := range []CaptureMode{CaptureHead, CaptureTail, CaptureReservoir} {
		armed := CaptureInfo{Mode: mode, Cap: 65536, Recorded: 3, Seen: 10, Suppressed: 7, Trigger: TriggerFirstDrop | TriggerFirstRTO}
		fired := armed
		fired.Trigger, fired.Triggered, fired.TriggeredAt, fired.TriggerReason = TriggerFirstRTO, true, 6, "first-rto"
		cases["trace-"+mode.String()+"-armed"] = SinkFile{Table: TraceTable, Capture: &armed, Trace: events}
		cases["trace-"+mode.String()+"-fired"] = SinkFile{Table: TraceTable, Provenance: "p", Capture: &fired, Trace: events}
	}
	manual := CaptureInfo{Mode: CaptureTail, Cap: 2, Triggered: true, TriggeredAt: 9, TriggerReason: "operator stop"}
	cases["trace-empty-manual-stop"] = SinkFile{Table: TraceTable, Capture: &manual}
	return cases
}

// asRead is what f must read back as. What differs from f is what NDJSON
// cannot carry: JSON strings are UTF-8 and its numbers finite, and rows name
// their own table and lead columns, so a file without rows or header lines
// names nothing.
func asRead(f SinkFile) SinkFile {
	if len(f.Counters)+len(f.Points)+len(f.CDF)+len(f.Trace)+len(f.Decisions)+len(f.Paths)+len(f.Summaries) == 0 && f.Capture == nil {
		return SinkFile{Provenance: f.Provenance}
	}
	utf8 := func(s string) string { return string([]rune(s)) }
	finite := func(v float64) float64 {
		if math.IsInf(v, 0) {
			return nan
		}
		return v
	}
	f.Probe, f.Unit = utf8(f.Probe), utf8(f.Unit)
	f.Counters = append([]CounterRow(nil), f.Counters...)
	for i := range f.Counters {
		f.Counters[i].Name = utf8(f.Counters[i].Name)
	}
	f.Trace = append([]TraceEvent(nil), f.Trace...)
	for i := range f.Trace {
		f.Trace[i].Where = utf8(f.Trace[i].Where)
	}
	f.Points = append([]Point(nil), f.Points...)
	for i := range f.Points {
		f.Points[i].V = finite(f.Points[i].V)
	}
	f.CDF = append([][2]float64(nil), f.CDF...)
	for i := range f.CDF {
		f.CDF[i] = [2]float64{finite(f.CDF[i][0]), finite(f.CDF[i][1])}
	}
	f.Summaries = append([]PathSummary(nil), f.Summaries...)
	for i := range f.Summaries {
		f.Summaries[i].Imbalance, f.Summaries[i].Entropy = finite(f.Summaries[i].Imbalance), finite(f.Summaries[i].Entropy)
	}
	return f
}

// sameSinkFile is reflect.DeepEqual with NaN equal to itself.
func sameSinkFile(a, b SinkFile) bool {
	const standIn = -1.25e-300
	scrub := func(f SinkFile) SinkFile {
		fix := func(v *float64) {
			if math.IsNaN(*v) {
				*v = standIn
			}
		}
		f.Points = append([]Point(nil), f.Points...)
		for i := range f.Points {
			fix(&f.Points[i].V)
		}
		f.CDF = append([][2]float64(nil), f.CDF...)
		for i := range f.CDF {
			fix(&f.CDF[i][0])
			fix(&f.CDF[i][1])
		}
		f.Summaries = append([]PathSummary(nil), f.Summaries...)
		for i := range f.Summaries {
			fix(&f.Summaries[i].Imbalance)
			fix(&f.Summaries[i].Entropy)
		}
		return f
	}
	return reflect.DeepEqual(scrub(a), scrub(b))
}

// TestSinkRoundTrip writes every case with SinkFile.Write and requires
// ReadSinkFile to hand back what was written, whatever the file is called.
func TestSinkRoundTrip(t *testing.T) {
	for name, f := range roundTripCases() {
		dir := t.TempDir()
		if err := f.Write(dir); err != nil {
			t.Fatal(err)
		}
		written, _ := filepath.Glob(filepath.Join(dir, "*"))
		if len(written) != 1 || filepath.Ext(written[0]) != ".ndjson" {
			t.Fatalf("%s: wrote %v, want one .ndjson file", name, written)
		}
		path := filepath.Join(dir, "renamed.txt")
		if err := os.Rename(written[0], path); err != nil {
			t.Fatal(err)
		}
		got, err := ReadSinkFile(path)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if want := asRead(f); !sameSinkFile(*got, want) {
			b, _ := os.ReadFile(path)
			t.Errorf("%s: read back\n%+v\nwant\n%+v\nfrom\n%s", name, *got, want, b)
		}
	}
}

// TestReadSinkFileRejectsDamage feeds the reader what SinkFile.Write cannot
// have written; each must fail with the line at fault.
func TestReadSinkFileRejectsDamage(t *testing.T) {
	trace := `{"capture":{"mode":"head","cap":4,"recorded":2,"seen":2,"suppressed":0,"trigger":"none","triggered":false,"triggered_at_ns":0,"reason":""}}` + "\n"
	row := func(flow, kind string) string {
		return `{"time_ns":5,"event":"` + kind + `","where":"h4","flow":` + flow + `,"src":4,"dst":2,"sport":10000,"dport":80,"seq":0,"payload":597}` + "\n"
	}
	for _, c := range []struct{ name, data, want string }{
		// The CSV copy a flush wrote before NDJSON became the only encoding.
		{"csv counters", "# provenance=p\ngroup,name,counter,value\nlink,l0->s0.0,enqueues,42\n", "f:1: does not open with '{': not an NDJSON sink file"},
		{"csv series", "# probe=queue.l0->s0.0\n# unit=bytes\ntime_ns,value\n10,1.5\n", "f:1: does not open with '{'"},
		{"leading blank line", "\n" + trace, "f:1: does not open with '{'"},
		{"cut mid-row", trace + row("0", "send") + row("1", "recv")[:40], "f:3: truncated final line"},
		{"cut mid-object", `{"time_ns":5,"event":"send"`, "f:1: truncated final line"},
		{"bad number", trace + row(`"zero"`, "send"), "f:2: column flow:"},
		{"unknown kind", trace + row("0", "sent"), `f:2: column event: telemetry: unknown telemetry.TraceKind "sent" (want send, recv, drop)`},
		{"blank line", trace + "\n" + row("0", "send"), "f:2: unexpected end of JSON input"},
		{"capture line short", `{"capture":{"mode":"head","cap":4}}` + "\n", "f:1: keys are not mode,cap,recorded,seen,suppressed,trigger"},
		{"metrics not an array", `{"time_ns":1,"src_leaf":0,"dst_leaf":1,"uplink":0,"reason":"sticky","age_ns":-1,"metrics":"3|1"}` + "\n", `f:1: column metrics: "\"3|1\"" is not an array`},
		{"json garbage", "{\"provenance\":\"p\"}\n{nope}\n", "f:2: invalid character"},
		{"json unknown table", `{"a":1,"b":2}` + "\n", "f:1: the row's keys are not the columns of any sink table"},
		{"json missing column", `{"leaf":0,"uplink":0,"dst_leaf":1,"flowlets":2,"bytes":3}` + "\n" + `{"leaf":0,"uplink":0}` + "\n", "f:2: keys are not leaf,uplink,dst_leaf,flowlets,bytes"},
		{"json wrong type", `{"group":"link","name":5,"counter":"drops","value":1}` + "\n", "f:1: column name:"},
		{"json two probes", `{"probe":"a","unit":"x","time_ns":1,"value":1}` + "\n" + `{"probe":"b","unit":"x","time_ns":2,"value":1}` + "\n", `f:2: column unit: row of "b" (x) in the file of "a" (x)`},
		{"json header after rows", `{"leaf":0,"uplink":0,"dst_leaf":1,"flowlets":2,"bytes":3}` + "\n" + `{"provenance":"p"}` + "\n", "f:2: header line after the first row"},
		{"json trace rows under a decision header", `{"capture":{"mode":"head","cap":1,"recorded":1,"seen":1,"suppressed":0}}` + "\n" +
			`{"time_ns":5,"event":"send","where":"h4","flow":0,"src":4,"dst":2,"sport":1,"dport":2,"seq":0,"payload":5}` + "\n", "f:2: keys are not time_ns,src_leaf"},
	} {
		_, err := decodeSink("f", []byte(c.data))
		if err == nil || !strings.HasPrefix(err.Error(), c.want) {
			t.Errorf("%s: error %v, want %q…", c.name, err, c.want)
		}
	}
}

// FuzzReadSinkFile: whatever the bytes, the reader returns an error or a
// file that the writer encodes to bytes that read back equal to it. Each
// case seeds the corpus whole, cut in half, without its first line, and
// twice over (a header line after rows).
func FuzzReadSinkFile(f *testing.F) {
	for _, c := range roundTripCases() {
		var b bytes.Buffer
		if err := c.encode(&b); err != nil {
			f.Fatal(err)
		}
		data := b.Bytes()
		_, rest, _ := bytes.Cut(data, []byte("\n"))
		f.Add(data)
		f.Add(data[:len(data)/2])
		f.Add(rest)
		f.Add(bytes.Repeat(data, 2))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decodeSink("fuzz", data)
		if err != nil {
			return
		}
		if got.Table == nil {
			if want := (SinkFile{Provenance: got.Provenance}); !reflect.DeepEqual(*got, want) {
				t.Fatalf("read %+v without learning its table", *got)
			}
			return
		}
		var b bytes.Buffer
		if err := got.encode(&b); err != nil {
			t.Fatal(err)
		}
		again, err := decodeSink("re-encoded", b.Bytes())
		if err != nil {
			t.Fatalf("%v\nre-encoding of\n%q\nas\n%q", err, data, b.Bytes())
		}
		if !sameSinkFile(*got, *again) {
			t.Fatalf("read\n%+v\nre-encoded it reads\n%+v\ninput\n%q\nre-encoding\n%q", *got, *again, data, b.Bytes())
		}
	})
}
