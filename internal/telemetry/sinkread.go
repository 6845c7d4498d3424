package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"conga/internal/sim"
)

// ReadSinkFile decodes one file SinkFile.Write wrote. The table is taken from
// the keys of the rows or header lines, never from the file name. Anything
// Write could not have written — input that does not open with '{', a row
// with a missing column or a malformed number, an unknown header line, a
// final line cut short — is an error naming path:line.
func ReadSinkFile(path string) (*SinkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decodeSink(path, data)
}

// decodeSink decodes the bytes of one sink file, as ReadSinkFile does; name
// stands for the file in errors. An empty input is a valid file: an empty
// series flushes as one.
func decodeSink(name string, data []byte) (*SinkFile, error) {
	d := &sinkDecoder{data: data, f: &SinkFile{}}
	var err error
	start := len(data) // of the record at fault
	switch {
	case start > 0 && data[0] != '{':
		start, err = 0, errors.New("does not open with '{': not an NDJSON sink file")
	case start > 0 && data[start-1] != '\n':
		err = errors.New("truncated final line (no newline)")
	}
	for err == nil && d.pos < len(data) {
		start = d.pos
		err = d.line()
	}
	if err != nil {
		return nil, fmt.Errorf("%s:%d: %w", name, 1+bytes.Count(data[:start], []byte("\n")), err)
	}
	return d.f, nil
}

// sinkDecoder walks one file, whose data ends in a newline, filling f; f.Table
// is nil until a header line or the first row names it.
type sinkDecoder struct {
	data []byte
	pos  int
	rows int
	cols []any // scratch for SinkFile.row
	f    *SinkFile
}

// line decodes the next line: a {"provenance":…}, {"capture":{…}} or
// {"summary":{…}} header line ahead of the rows, or a row, whose keys are the
// columns of exactly one table.
func (d *sinkDecoder) line() error {
	line := d.data[d.pos : d.pos+bytes.IndexByte(d.data[d.pos:], '\n')]
	d.pos += len(line) + 1
	var obj, fields map[string]json.RawMessage
	if err := json.Unmarshal(line, &obj); err != nil {
		return err
	}
	for _, name := range []string{"provenance", captureMeta.Name, summaryMeta.Name} {
		raw, ok := obj[name]
		switch {
		case !ok || len(obj) != 1:
		case d.rows > 0:
			return errors.New("header line after the first row (two files in one?)")
		case name == "provenance":
			return json.Unmarshal(raw, &d.f.Provenance)
		default:
			if err := json.Unmarshal(raw, &fields); err != nil {
				return err
			}
			return d.header(name, fields)
		}
	}
	for _, t := range tables {
		if d.f.Table == nil && d.record(obj, t, len(t.cols)).err == nil {
			d.f.Table = t
		}
	}
	if d.f.Table == nil {
		return errors.New("the row's keys are not the columns of any sink table")
	}
	return d.row(d.record(obj, d.f.Table, len(d.f.Table.cols)))
}

// header folds a capture or summary line's fields into the file. A file may
// have no rows to tell its table by; then these lines do (only a packet
// trace's capture line has a trigger).
func (d *sinkDecoder) header(name string, fields map[string]json.RawMessage) error {
	m, t, cols := summaryMeta, PathTable, []any(nil)
	if name == captureMeta.Name {
		d.f.Capture = &CaptureInfo{}
		m, t, cols = captureMeta, TraceTable, captureRow(d.f.Capture, nil)
		if len(fields) == captureCore {
			t, cols = DecisionTable, cols[:captureCore]
		}
	} else {
		d.f.Summaries = append(d.f.Summaries, PathSummary{})
		cols = summaryRow(&d.f.Summaries[len(d.f.Summaries)-1], nil)
	}
	r := d.record(fields, m, len(cols))
	r.scan(cols)
	d.f.Table = t
	return r.err
}

// row decodes one row of the file's table, appending it. Rows carry the lead
// columns, which must agree.
func (d *sinkDecoder) row(r *record) error {
	if f := d.f; f.Table.lead > 0 {
		probe, unit := f.Probe, f.Unit
		if r.scan([]any{&f.Probe, &f.Unit}); d.rows > 0 && (probe != f.Probe || unit != f.Unit) {
			r.note(fmt.Errorf("row of %q (%s) in the file of %q (%s)", f.Probe, f.Unit, probe, unit))
		}
	}
	d.cols = d.f.row(d.rows, true, d.cols[:0])
	d.rows++
	r.scan(d.cols)
	return r.err
}

// record is one row, or one capture or summary line, as the text of each
// column of table t.
type record struct {
	t    *Table
	vals [][]byte
	col  int
	err  error
}

// record lines an object's values up with the first n columns of t, which
// must be exactly its keys.
func (d *sinkDecoder) record(obj map[string]json.RawMessage, t *Table, n int) *record {
	r := &record{t: t, vals: make([][]byte, n)}
	for i, c := range t.cols[:n] {
		raw, ok := obj[c]
		if r.vals[i] = raw; !ok || len(obj) != n {
			r.err = fmt.Errorf("keys are not %s", strings.Join(t.cols[:n], ","))
		}
	}
	return r
}

func (r *record) note(err error) {
	if err != nil && r.err == nil {
		r.err = fmt.Errorf("column %s: %w", r.t.cols[r.col-1], err)
	}
}

// scan parses the record's next columns into what cols point at, the inverse
// of rowWriter.values, keeping the first error.
func (r *record) scan(cols []any) {
	for _, p := range cols {
		s := string(r.vals[r.col])
		r.col++
		var err error
		switch p := p.(type) {
		case *int:
			*p, err = strconv.Atoi(s)
		case *int64:
			*p, err = strconv.ParseInt(s, 10, 64)
		case *sim.Time:
			*(*int64)(p), err = strconv.ParseInt(s, 10, 64)
		case *uint64:
			*p, err = strconv.ParseUint(s, 10, 64)
		case *bool:
			*p, err = strconv.ParseBool(s)
		case *float64:
			// null stands for any of NaN and ±Inf and reads back as NaN.
			if *p = math.NaN(); s != "null" {
				*p, err = strconv.ParseFloat(s, 64)
			}
		case *string:
			*p = r.str(s)
		case *TraceKind:
			*p, err = valueOf[TraceKind](traceKindNames, r.str(s))
		case *DecisionReason:
			*p, err = valueOf[DecisionReason](reasonNames, r.str(s))
		case *CaptureMode:
			*p, err = valueOf[CaptureMode](captureModeNames, r.str(s))
		case *Trigger:
			*p, err = valueOf[Trigger](triggerNames, r.str(s))
		case *[]uint8:
			*p, err = r.metrics(s)
		default:
			panic(fmt.Sprintf("telemetry: no decoding for a %T column", p))
		}
		r.note(err)
	}
}

// str undoes appendJSONString.
func (r *record) str(s string) string {
	r.note(json.Unmarshal([]byte(s), &s))
	return s
}

func (r *record) metrics(s string) (m []uint8, err error) {
	if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
		return nil, fmt.Errorf("%q is not an array", s)
	}
	for _, p := range strings.FieldsFunc(s[1:len(s)-1], func(c rune) bool { return c == ',' }) {
		v, perr := strconv.ParseUint(p, 10, 8)
		m, err = append(m, uint8(v)), errors.Join(err, perr)
	}
	return m, err
}
