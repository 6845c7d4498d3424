package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"strings"
)

// A minimal reader for the gzip'd profile.proto that runtime/pprof writes,
// so the harness can fold CPU samples by package without a dependency or a
// second process. Only the fields the fold needs are decoded: samples
// (leaf location, last value = CPU nanoseconds), locations (innermost
// line's function) and functions (name).

// cpuLayers are the packages the samples fold into, in report order;
// "runtime" takes the Go runtime (scheduler, GC, allocator) and "other"
// everything else (the conga harness, bench code, the rest of the standard
// library), so the shares sum to 1 by construction.
var cpuLayers = []string{"sim", "core", "fabric", "tcp", "mptcp", "workload", "stats", "telemetry", "runtime", "other"}

// layerOf maps a sampled function to its layer.
func layerOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "conga/internal/"); ok {
		pkg, _, _ := strings.Cut(rest, ".")
		pkg, _, _ = strings.Cut(pkg, "/")
		for _, l := range cpuLayers {
			if l == pkg {
				return l
			}
		}
		return "other"
	}
	if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") || strings.HasPrefix(fn, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}

type protoBuf struct{ b []byte }

func (p *protoBuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, io.ErrUnexpectedEOF
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, fmt.Errorf("profile: varint overflow")
}

// field reads one field: its number, and either its varint value or its
// length-delimited bytes. Fixed-width fields are skipped.
func (p *protoBuf) field() (num int, v uint64, data []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, nil, err
	}
	num = int(key >> 3)
	switch key & 7 {
	case 0:
		v, err = p.varint()
	case 1, 5:
		n := 8
		if key&7 == 5 {
			n = 4
		}
		if len(p.b) < n {
			return 0, 0, nil, io.ErrUnexpectedEOF
		}
		p.b = p.b[n:]
	case 2:
		var n uint64
		if n, err = p.varint(); err == nil {
			if uint64(len(p.b)) < n {
				return 0, 0, nil, io.ErrUnexpectedEOF
			}
			data, p.b = p.b[:n], p.b[n:]
		}
	default:
		err = fmt.Errorf("profile: unsupported wire type %d", key&7)
	}
	return num, v, data, err
}

// repeated decodes a repeated varint field that may arrive packed (data) or
// as a single value (v).
func repeated(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	p := protoBuf{data}
	for len(p.b) > 0 {
		x, err := p.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

// foldCPUProfile returns each layer's share of the profile's CPU time,
// attributed by the package of the sampled (leaf) function, and the number
// of samples behind the shares.
func foldCPUProfile(gz []byte) (map[string]float64, int, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}

	type sampleRec struct {
		leaf  uint64
		count uint64 // first value: samples taken at this stack
		value uint64 // last value: CPU nanoseconds
	}
	var samples []sampleRec
	locFunc := map[uint64]uint64{}  // location id → innermost function id
	funcName := map[uint64]uint64{} // function id → string index
	var strs []string

	top := protoBuf{raw}
	for len(top.b) > 0 {
		num, _, data, err := top.field()
		if err != nil {
			return nil, 0, err
		}
		msg := protoBuf{data}
		switch num {
		case 2: // Sample
			var locs, vals []uint64
			for len(msg.b) > 0 {
				n, v, d, err := msg.field()
				if err != nil {
					return nil, 0, err
				}
				switch n {
				case 1:
					locs, err = repeated(locs, v, d)
				case 2:
					vals, err = repeated(vals, v, d)
				}
				if err != nil {
					return nil, 0, err
				}
			}
			if len(locs) > 0 && len(vals) > 0 {
				samples = append(samples, sampleRec{locs[0], vals[0], vals[len(vals)-1]})
			}
		case 4: // Location
			var id, fn uint64
			seenLine := false
			for len(msg.b) > 0 {
				n, v, d, err := msg.field()
				if err != nil {
					return nil, 0, err
				}
				switch {
				case n == 1:
					id = v
				case n == 4 && !seenLine: // first Line is the innermost frame
					seenLine = true
					line := protoBuf{d}
					for len(line.b) > 0 {
						ln, lv, _, err := line.field()
						if err != nil {
							return nil, 0, err
						}
						if ln == 1 {
							fn = lv
						}
					}
				}
			}
			locFunc[id] = fn
		case 5: // Function
			var id, name uint64
			for len(msg.b) > 0 {
				n, v, _, err := msg.field()
				if err != nil {
					return nil, 0, err
				}
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
	}

	shares := map[string]float64{}
	var total float64
	count := 0
	for _, s := range samples {
		count += int(s.count)
		name := ""
		if i := funcName[locFunc[s.leaf]]; i < uint64(len(strs)) {
			name = strs[i]
		}
		shares[layerOf(name)] += float64(s.value)
		total += float64(s.value)
	}
	if total == 0 {
		return nil, 0, fmt.Errorf("profile: no CPU samples")
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares, count, nil
}
