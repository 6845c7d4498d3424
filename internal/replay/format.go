package replay

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"conga/internal/sim"
)

// One encoding: a gzip stream holding a magic tag, the JSON header, and
// varint-delta arrival records (about 8 bytes per flow once compressed).
// gzip's trailing CRC makes truncation and bit rot fail loudly on read.
// Read goes by the bytes, not the file name, so a renamed trace still loads.

// binaryMagic opens the (pre-gzip) binary stream.
const binaryMagic = "CONGARPL"

// jsonHeader is Header's wire form, the stream's header block. The
// fingerprint travels as a hex string: JSON numbers above 2^53 aren't safe
// in every consumer, and hex is what the CLI prints anyway.
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

// header is j as a Header. It rejects a negative flow count; the reader
// never trusts the count for an allocation, and Validate checks it against
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

// Write stores the trace at path as the gzip'd binary stream.
func (t *Trace) Write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.writeBinary(f); err != nil {
		f.Close()
		return fmt.Errorf("replay: writing %s: %w", path, err)
	}
	return f.Close()
}

// Read loads a trace from path and validates it; corrupt or mismatched
// files return an error rather than a partial trace.
func Read(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	if magic, _ := br.Peek(2); len(magic) < 2 || magic[0] != 0x1f || magic[1] != 0x8b {
		return nil, fmt.Errorf("replay: %s: not a replay trace (want a gzip'd %s stream)", path, binaryMagic)
	}
	t, err := readBinary(br)
	if err != nil {
		return nil, fmt.Errorf("replay: reading %s: %w", path, err)
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("replay: %s: %w", path, err)
	}
	return t, nil
}

// IsTraceFile sniffs whether path holds a replay trace — a gzip stream that
// opens with the magic tag — without decoding the whole file. Tools that
// accept several file types (congatrace -read) use it to route.
func IsTraceFile(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
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
