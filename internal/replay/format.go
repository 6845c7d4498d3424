package replay

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"conga/internal/sim"
)

// Two interchangeable encodings of the same model:
//
//   - NDJSON: a {"replay_trace": <header>} meta line followed by one JSON
//     object per arrival. Greppable, diffable, and self-describing.
//   - Binary: a gzip stream holding a magic tag, the JSON header, and
//     varint-delta arrival records (~10 bytes/flow before compression vs
//     ~100 for NDJSON). gzip's trailing CRC makes truncation and bit rot
//     fail loudly on read.
//
// Write picks by filename (.gz → binary); Read sniffs the gzip magic, so a
// renamed file still loads.

// binaryMagic opens the (pre-gzip) binary stream.
const binaryMagic = "CONGARPL"

// jsonHeader is Header's wire form. The fingerprint travels as a hex
// string: JSON numbers above 2^53 aren't safe in every consumer, and hex is
// what the CLI prints anyway.
type jsonHeader struct {
	Version    int     `json:"version"`
	Harness    string  `json:"harness"`
	Scheme     string  `json:"scheme"`
	Workload   string  `json:"workload"`
	Load       float64 `json:"load"`
	Seed       uint64  `json:"seed"`
	TopoFP     string  `json:"topo_fp"`
	Topo       string  `json:"topo"`
	DurationNs int64   `json:"duration_ns"`
	Flows      int     `json:"flows"`
	Bytes      int64   `json:"bytes"`
	SpanNs     int64   `json:"span_ns"`
}

func (h Header) wire() jsonHeader {
	return jsonHeader{
		Version: h.Version, Harness: h.Harness, Scheme: h.Scheme,
		Workload: h.Workload, Load: h.Load, Seed: h.Seed,
		TopoFP: fmt.Sprintf("%016x", h.TopoFP), Topo: h.Topo,
		DurationNs: h.DurationNs, Flows: h.Flows, Bytes: h.Bytes, SpanNs: h.SpanNs,
	}
}

// header is j as a Header. It rejects a negative flow count; the readers
// never trust the count for an allocation, and Validate checks it against
// the flows read.
func (j jsonHeader) header() (Header, error) {
	if j.Flows < 0 {
		return Header{}, fmt.Errorf("corrupt trace: negative flow count %d", j.Flows)
	}
	var fp uint64
	if j.TopoFP != "" {
		if _, err := fmt.Sscanf(j.TopoFP, "%x", &fp); err != nil {
			return Header{}, fmt.Errorf("replay: bad topo_fp %q: %w", j.TopoFP, err)
		}
	}
	return Header{
		Version: j.Version, Harness: j.Harness, Scheme: j.Scheme,
		Workload: j.Workload, Load: j.Load, Seed: j.Seed,
		TopoFP: fp, Topo: j.Topo,
		DurationNs: j.DurationNs, Flows: j.Flows, Bytes: j.Bytes, SpanNs: j.SpanNs,
	}, nil
}

// jsonFlow is Flow's NDJSON wire form.
type jsonFlow struct {
	AtNs   int64  `json:"at_ns"`
	Src    int    `json:"src"`
	Dst    int    `json:"dst"`
	FlowID uint64 `json:"flow"`
	Size   int64  `json:"size"`
	Kind   string `json:"kind,omitempty"`
}

// Write stores the trace at path: gzip'd binary when the name ends in
// ".gz", NDJSON otherwise.
func (t *Trace) Write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".gz") {
		err = t.writeBinary(f)
	} else {
		err = t.writeNDJSON(f)
	}
	if err != nil {
		f.Close()
		return fmt.Errorf("replay: writing %s: %w", path, err)
	}
	return f.Close()
}

// Read loads a trace from path, auto-detecting the format, and validates
// it; corrupt or mismatched files return an error rather than a partial
// trace.
func Read(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	magic, err := br.Peek(2)
	if err != nil {
		return nil, fmt.Errorf("replay: %s: not a replay trace (%w)", path, err)
	}
	var t *Trace
	if magic[0] == 0x1f && magic[1] == 0x8b { // gzip
		t, err = readBinary(br)
	} else {
		t, err = readNDJSON(br)
	}
	if err != nil {
		return nil, fmt.Errorf("replay: reading %s: %w", path, err)
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("replay: %s: %w", path, err)
	}
	return t, nil
}

// IsTraceFile sniffs whether path looks like a replay trace (either
// format) without decoding the whole file. Tools that accept several file
// types (congatrace -read) use it to route.
func IsTraceFile(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	head := make([]byte, 64)
	n, _ := io.ReadFull(f, head)
	head = head[:n]
	if len(head) >= 2 && head[0] == 0x1f && head[1] == 0x8b {
		// gzip: decompress just enough to check the magic tag.
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return false
		}
		zr, err := gzip.NewReader(f)
		if err != nil {
			return false
		}
		defer zr.Close()
		tag := make([]byte, len(binaryMagic))
		if _, err := io.ReadFull(zr, tag); err != nil {
			return false
		}
		return string(tag) == binaryMagic
	}
	return strings.HasPrefix(strings.TrimSpace(string(head)), `{"replay_trace":`)
}

func (t *Trace) writeNDJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	meta, err := json.Marshal(map[string]jsonHeader{"replay_trace": t.Header.wire()})
	if err != nil {
		return err
	}
	bw.Write(meta)
	bw.WriteByte('\n')
	enc := json.NewEncoder(bw)
	for i := range t.Flows {
		f := &t.Flows[i]
		if err := enc.Encode(jsonFlow{
			AtNs: int64(f.At), Src: f.Src, Dst: f.Dst,
			FlowID: f.FlowID, Size: f.Size, Kind: f.Kind,
		}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func readNDJSON(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("empty file")
	}
	var meta map[string]jsonHeader
	if err := json.Unmarshal(sc.Bytes(), &meta); err != nil {
		return nil, fmt.Errorf("bad header line: %w", err)
	}
	jh, ok := meta["replay_trace"]
	if !ok {
		return nil, fmt.Errorf("not a replay trace (no replay_trace header)")
	}
	h, err := jh.header()
	if err != nil {
		return nil, err
	}
	t := &Trace{Header: h}
	line := 1
	for sc.Scan() {
		line++
		raw := strings.TrimSpace(sc.Text())
		if raw == "" {
			continue
		}
		var jf jsonFlow
		if err := json.Unmarshal([]byte(raw), &jf); err != nil {
			return nil, fmt.Errorf("corrupt trace: line %d: %w", line, err)
		}
		t.Flows = append(t.Flows, Flow{
			At: sim.Time(jf.AtNs), Src: jf.Src, Dst: jf.Dst,
			FlowID: jf.FlowID, Size: jf.Size, Kind: jf.Kind,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return t, nil
}

// Binary layout (inside gzip):
//
//	"CONGARPL"
//	uvarint len(headerJSON), headerJSON
//	uvarint nKinds, then per kind: uvarint len, bytes   (string table)
//	per flow: uvarint Δat | uvarint src | uvarint dst |
//	          uvarint ΔflowID (vs previous, IDs are non-decreasing per
//	          generator but not globally — so it is zig-zag encoded) |
//	          uvarint size | uvarint kindIndex
func (t *Trace) writeBinary(w io.Writer) error {
	zw := gzip.NewWriter(w)
	bw := bufio.NewWriter(zw)
	bw.WriteString(binaryMagic)

	hdr, err := json.Marshal(t.Header.wire())
	if err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) {
		n := binary.PutUvarint(buf[:], v)
		bw.Write(buf[:n])
	}
	putUvarint(uint64(len(hdr)))
	bw.Write(hdr)

	// Kind string table in first-appearance order.
	kindIdx := map[string]int{}
	var kinds []string
	for i := range t.Flows {
		k := t.Flows[i].Kind
		if _, ok := kindIdx[k]; !ok {
			kindIdx[k] = len(kinds)
			kinds = append(kinds, k)
		}
	}
	putUvarint(uint64(len(kinds)))
	for _, k := range kinds {
		putUvarint(uint64(len(k)))
		bw.WriteString(k)
	}

	var prevAt sim.Time
	var prevID uint64
	for i := range t.Flows {
		f := &t.Flows[i]
		putUvarint(uint64(f.At - prevAt))
		putUvarint(uint64(f.Src))
		putUvarint(uint64(f.Dst))
		putUvarint(zigzag(int64(f.FlowID - prevID)))
		putUvarint(uint64(f.Size))
		putUvarint(uint64(kindIdx[f.Kind]))
		prevAt, prevID = f.At, f.FlowID
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return zw.Close()
}

func readBinary(r io.Reader) (*Trace, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, err
	}
	defer zr.Close()
	br := bufio.NewReader(zr)

	tag := make([]byte, len(binaryMagic))
	if _, err := io.ReadFull(br, tag); err != nil {
		return nil, fmt.Errorf("corrupt trace: %w", err)
	}
	if string(tag) != binaryMagic {
		return nil, fmt.Errorf("not a replay trace (bad magic %q)", tag)
	}
	hlen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("corrupt trace: header length: %w", err)
	}
	if hlen > 1<<20 {
		return nil, fmt.Errorf("corrupt trace: implausible header length %d", hlen)
	}
	hdr := make([]byte, hlen)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("corrupt trace: header: %w", err)
	}
	var jh jsonHeader
	if err := json.Unmarshal(hdr, &jh); err != nil {
		return nil, fmt.Errorf("corrupt trace: header JSON: %w", err)
	}
	h, err := jh.header()
	if err != nil {
		return nil, err
	}

	nKinds, err := binary.ReadUvarint(br)
	if err != nil || nKinds > 1<<10 {
		return nil, fmt.Errorf("corrupt trace: kind table (%d kinds, err %v)", nKinds, err)
	}
	kinds := make([]string, nKinds)
	for i := range kinds {
		klen, err := binary.ReadUvarint(br)
		if err != nil || klen > 1<<10 {
			return nil, fmt.Errorf("corrupt trace: kind %d length", i)
		}
		kb := make([]byte, klen)
		if _, err := io.ReadFull(br, kb); err != nil {
			return nil, fmt.Errorf("corrupt trace: kind %d: %w", i, err)
		}
		kinds[i] = string(kb)
	}

	t := &Trace{Header: h}
	var prevAt sim.Time
	var prevID uint64
	for i := 0; i < h.Flows; i++ {
		var vals [6]uint64
		for j := range vals {
			v, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("corrupt trace: flow %d of %d truncated: %w", i, h.Flows, err)
			}
			vals[j] = v
		}
		if vals[5] >= uint64(len(kinds)) {
			return nil, fmt.Errorf("corrupt trace: flow %d references kind %d of %d", i, vals[5], len(kinds))
		}
		at := prevAt + sim.Time(vals[0])
		id := uint64(int64(prevID) + unzigzag(vals[3]))
		t.Flows = append(t.Flows, Flow{
			At: at, Src: int(vals[1]), Dst: int(vals[2]),
			FlowID: id, Size: int64(vals[4]), Kind: kinds[vals[5]],
		})
		prevAt, prevID = at, id
	}
	// Anything after the last flow is corruption, not padding.
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("corrupt trace: trailing data after %d flows", h.Flows)
	}
	return t, nil
}

func zigzag(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(v uint64) int64 { return int64(v>>1) ^ -int64(v&1) }
