package replay

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"conga/internal/sim"
)

func sampleTrace(n int) *Trace {
	rec := &Recorder{Header: Header{
		Harness: "fct", Scheme: "conga", Workload: "enterprise",
		Load: 0.6, Seed: 7, TopoFP: Fingerprint("leaves=4"), Topo: "leaves=4",
		DurationNs: int64(40 * sim.Millisecond),
	}}
	var at sim.Time
	for i := 0; i < n; i++ {
		at += sim.Time(1000 + i*37)
		kind := KindWorkload
		if i%5 == 0 {
			kind = KindIncast
		}
		rec.Add(Flow{
			At: at, Src: i % 16, Dst: (i*7 + 3) % 16,
			FlowID: uint64(100 + i*16), Size: int64(1000 + i*i*13),
			Kind: kind,
		})
	}
	return rec.Trace()
}

func equalTraces(t *testing.T, want, got *Trace) {
	t.Helper()
	if want.Header != got.Header {
		t.Fatalf("header mismatch:\n want %+v\n  got %+v", want.Header, got.Header)
	}
	if len(want.Flows) != len(got.Flows) {
		t.Fatalf("flow count mismatch: want %d got %d", len(want.Flows), len(got.Flows))
	}
	for i := range want.Flows {
		if want.Flows[i] != got.Flows[i] {
			t.Fatalf("flow %d mismatch:\n want %+v\n  got %+v", i, want.Flows[i], got.Flows[i])
		}
	}
}

func TestRoundTripNDJSON(t *testing.T) {
	tr := sampleTrace(200)
	path := filepath.Join(t.TempDir(), "trace.ndjson")
	if err := tr.Write(path); err != nil {
		t.Fatal(err)
	}
	got, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	equalTraces(t, tr, got)
	if !IsTraceFile(path) {
		t.Error("IsTraceFile = false for NDJSON trace")
	}
}

func TestRoundTripBinary(t *testing.T) {
	tr := sampleTrace(200)
	path := filepath.Join(t.TempDir(), "trace.gz")
	if err := tr.Write(path); err != nil {
		t.Fatal(err)
	}
	got, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	equalTraces(t, tr, got)
	if !IsTraceFile(path) {
		t.Error("IsTraceFile = false for binary trace")
	}

	// The binary format should be much denser than NDJSON.
	nd := filepath.Join(t.TempDir(), "trace.ndjson")
	if err := tr.Write(nd); err != nil {
		t.Fatal(err)
	}
	bi, _ := os.Stat(path)
	ni, _ := os.Stat(nd)
	if bi.Size()*4 > ni.Size() {
		t.Errorf("binary trace not compact: %d bytes vs %d NDJSON", bi.Size(), ni.Size())
	}
}

func TestEmptyTraceRoundTrip(t *testing.T) {
	rec := &Recorder{Header: Header{Harness: "fct"}}
	tr := rec.Trace()
	for _, name := range []string{"e.ndjson", "e.gz"} {
		path := filepath.Join(t.TempDir(), name)
		if err := tr.Write(path); err != nil {
			t.Fatal(err)
		}
		got, err := Read(path)
		if err != nil {
			t.Fatal(err)
		}
		equalTraces(t, tr, got)
	}
}

func TestCorruptTracesFailLoudly(t *testing.T) {
	dir := t.TempDir()
	tr := sampleTrace(50)

	write := func(name string, data []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	nd := filepath.Join(dir, "ok.ndjson")
	if err := tr.Write(nd); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(nd)
	if err != nil {
		t.Fatal(err)
	}
	gz := filepath.Join(dir, "ok.gz")
	if err := tr.Write(gz); err != nil {
		t.Fatal(err)
	}
	rawGz, err := os.ReadFile(gz)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		path string
		want string
	}{
		{"not json", write("garbage.ndjson", []byte("hello world\n")), "bad header line"},
		{"wrong meta key", write("wrongkey.ndjson", []byte(`{"something_else":{}}`+"\n")), "no replay_trace header"},
		{"truncated ndjson", write("trunc.ndjson", raw[:len(raw)/2]), "corrupt trace"},
		{"truncated gzip", write("trunc.gz", rawGz[:len(rawGz)/2]), ""},
		{"flipped gzip byte", write("flip.gz", append(append([]byte{}, rawGz[:len(rawGz)-4]...), 0, 0, 0, 0)), ""},
		{"empty file", write("empty.ndjson", nil), ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Read(c.path)
			if err == nil {
				t.Fatalf("Read(%s) succeeded on corrupt input", c.path)
			}
			if c.want != "" && !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

func TestValidateCatchesHeaderLies(t *testing.T) {
	tr := sampleTrace(10)

	bad := *tr
	bad.Header.Flows = 99
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "promises 99 flows") {
		t.Errorf("flow-count lie not caught: %v", err)
	}

	bad = *tr
	bad.Header.Bytes += 5
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "bytes") {
		t.Errorf("byte-count lie not caught: %v", err)
	}

	bad = *tr
	bad.Header.Version = 42
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("unknown version not caught: %v", err)
	}

	// Out-of-order arrivals.
	flows := append([]Flow{}, tr.Flows...)
	flows[3], flows[4] = flows[4], flows[3]
	bad = Trace{Header: tr.Header, Flows: flows}
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "precedes") {
		t.Errorf("out-of-order arrivals not caught: %v", err)
	}
}

func TestFingerprintMismatch(t *testing.T) {
	tr := sampleTrace(5)
	other := Fingerprint("leaves=8")
	if other == tr.Header.TopoFP {
		t.Fatal("distinct descs collided")
	}
	err := tr.CheckTopology(other, "leaves=8")
	if err == nil {
		t.Fatal("mismatched fingerprint accepted")
	}
	if !strings.Contains(err.Error(), "leaves=4") || !strings.Contains(err.Error(), "leaves=8") {
		t.Errorf("error %q should name both topologies", err)
	}
	if err := tr.CheckTopology(tr.Header.TopoFP, "leaves=4"); err != nil {
		t.Errorf("matching fingerprint rejected: %v", err)
	}
}

func TestIsTraceFileRejectsOtherFiles(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "trace.csv")
	os.WriteFile(csv, []byte("time_ns,event\n100,enqueue\n"), 0o644)
	if IsTraceFile(csv) {
		t.Error("IsTraceFile = true for a CSV packet trace")
	}
	if IsTraceFile(filepath.Join(dir, "missing")) {
		t.Error("IsTraceFile = true for a missing file")
	}
}

// FuzzReplayRead: whatever the bytes, in either format, Read returns an error
// or a trace holding as many flows as its header promises — never a panic,
// and never an allocation sized by the header alone. The seeds are both
// formats whole and damaged: forged negative and huge flow counts, a varint
// cut short, a kind index past the table, and a byte after the last flow.
func FuzzReplayRead(f *testing.F) {
	gz := func(payload []byte) []byte {
		var b bytes.Buffer
		zw := gzip.NewWriter(&b)
		zw.Write(payload)
		zw.Close()
		return b.Bytes()
	}
	// forged is a binary stream with this header JSON, no kinds and no flows.
	forged := func(header string) []byte {
		p := binary.AppendUvarint([]byte(binaryMagic), uint64(len(header)))
		return gz(binary.AppendUvarint(append(p, header...), 0))
	}
	tr := sampleTrace(5)
	var nd, bin bytes.Buffer
	if err := tr.writeNDJSON(&nd); err != nil {
		f.Fatal(err)
	}
	if err := tr.writeBinary(&bin); err != nil {
		f.Fatal(err)
	}
	zr, err := gzip.NewReader(&bin)
	if err != nil {
		f.Fatal(err)
	}
	payload, err := io.ReadAll(zr) // its last byte is the last flow's kind index
	if err != nil {
		f.Fatal(err)
	}
	badKind := bytes.Clone(payload)
	badKind[len(badKind)-1] = 9

	f.Add(nd.Bytes())
	f.Add([]byte(`{"replay_trace":{"version":1,"flows":-1}}` + "\n"))
	f.Add([]byte(`{"replay_trace":{"version":1,"flows":2147483648}}` + "\n"))
	f.Add(gz(payload))
	f.Add(forged(`{"version":1,"flows":-1}`))
	f.Add(forged(`{"version":1,"flows":2147483648}`))
	f.Add(gz(payload[:len(payload)-1]))
	f.Add(gz(badKind))
	f.Add(gz(append(payload, 0)))

	path := filepath.Join(f.TempDir(), "trace")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := Read(path)
		if err == nil && len(got.Flows) != got.Header.Flows {
			t.Fatalf("read %d flows under a header promising %d", len(got.Flows), got.Header.Flows)
		}
	})
}
