package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"

	"conga/internal/sim"
)

// ReadSinkFile decodes one file a FileSink wrote. The encoding is taken from
// the first byte ('{' opens NDJSON) and the table from the CSV column line or
// the keys of the NDJSON rows, never from the file name. Anything a FileSink
// could not have written — a row with a missing column or a malformed number,
// an unknown header line, a final line cut short — is an error naming
// path:line.
func ReadSinkFile(path string) (*SinkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decodeSink(path, data)
}

func decodeSink(name string, data []byte) (*SinkFile, error) {
	d := &sinkDecoder{data: data, json: len(data) > 0 && data[0] == '{',
		lead: make([][]byte, SeriesTable.lead), f: &SinkFile{}}
	var err error
	start := len(data) // of the record at fault
	if start > 0 && data[start-1] != '\n' {
		err = errors.New("truncated final line (no newline)")
	}
	for err == nil && d.pos < len(data) {
		if start = d.pos; d.json {
			err = d.ndjsonLine()
		} else {
			err = d.csvLine()
		}
	}
	if err == nil && !d.json && d.f.Table == nil && len(data) > 0 {
		start, err = len(data), errors.New("no column line: not a sink file")
	}
	if err != nil {
		return nil, fmt.Errorf("%s:%d: %w", name, 1+bytes.Count(data[:start], []byte("\n")), err)
	}
	return d.f, nil
}

// sinkDecoder walks one file, whose data ends in a newline, filling f; f.Table
// is nil until a header line, the column line or the first row names it.
type sinkDecoder struct {
	data []byte
	json bool
	pos  int
	lead [][]byte // CSV: the "# probe=…" and "# unit=…" values
	rows int
	cols []any // scratch for SinkFile.row
	f    *SinkFile
}

func (d *sinkDecoder) nextLine() []byte {
	line := d.data[d.pos : d.pos+bytes.IndexByte(d.data[d.pos:], '\n')]
	d.pos += len(line) + 1
	return line
}

// csvLine decodes the next "# …" header line, the column line that names the
// table, or, after it, the next row.
func (d *sinkDecoder) csvLine() error {
	if t := d.f.Table; t != nil {
		fields, err := d.csvFields()
		if want := len(t.cols) - t.lead; err == nil && len(fields) != want {
			err = fmt.Errorf("%d columns, want %d (%s)", len(fields), want, strings.Join(t.cols[t.lead:], ","))
		}
		if err != nil {
			return err
		}
		return d.row(&record{t: t, vals: append(d.lead[:t.lead:t.lead], fields...)})
	}
	line := string(d.nextLine())
	body, ok := strings.CutPrefix(line, "# ")
	if !ok {
		for _, t := range tables {
			if line == strings.Join(t.cols[t.lead:], ",") {
				if d.f.Table = t; t.lead > 0 {
					d.f.Probe, d.f.Unit = string(d.lead[0]), string(d.lead[1])
				}
				return nil
			}
		}
		return fmt.Errorf("%q is not the column line of any sink table", line)
	}
	key, val, _ := strings.Cut(body, "=")
	switch i := slices.Index(SeriesTable.cols[:len(d.lead)], key); {
	case key == "provenance":
		d.f.Provenance = val
	case i >= 0:
		d.lead[i] = []byte(leadUnescaper.Replace(val))
	case key == captureMeta.Name, strings.HasPrefix(key, summaryMeta.Name+" "):
		// "# summary leaf=0 flowlets=…" is the line's name, then key=value
		// fields; "# capture=head cap=…" folds the name into the first key.
		name, rest, _ := strings.Cut(strings.Replace(body, "capture=", "capture mode=", 1), " ")
		fields := map[string]json.RawMessage{}
		for _, tok := range strings.Fields(rest) {
			k, v, _ := strings.Cut(tok, "=")
			fields[k] = json.RawMessage(v)
		}
		return d.header(name, fields)
	default:
		return fmt.Errorf("unknown header line %q", line)
	}
	return nil
}

// csvFields splits the record at d.pos into fields, undoing rowWriter.str's
// quoting: a field that opens with '"' runs to the first quote that is not
// doubled and may span lines. The data ends in a newline, so every quote and
// every field has a byte after it.
func (d *sinkDecoder) csvFields() (fields [][]byte, err error) {
	for {
		rest := d.data[d.pos:]
		n := bytes.IndexAny(rest, ",\n")
		field := rest[:n]
		if rest[0] == '"' {
			for n = 1; ; n += 2 {
				i := bytes.IndexByte(rest[n:], '"')
				if i < 0 {
					return nil, errors.New("quoted field never closes")
				}
				if n += i; rest[n+1] != '"' {
					break
				}
			}
			field = bytes.ReplaceAll(rest[1:n], []byte(`""`), []byte(`"`))
			n++
		}
		fields = append(fields, field)
		d.pos += n + 1
		switch rest[n] {
		case '\n':
			return fields, nil
		case ',':
		default:
			return nil, fmt.Errorf("text after the closing quote of column %d", len(fields))
		}
	}
}

// ndjsonLine decodes the next line: a {"provenance":…}, {"capture":{…}} or
// {"summary":{…}} header line ahead of the rows, or a row, whose keys are the
// columns of exactly one table.
func (d *sinkDecoder) ndjsonLine() error {
	var obj, fields map[string]json.RawMessage
	if err := json.Unmarshal(d.nextLine(), &obj); err != nil {
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

// header folds a capture or summary line's fields into the file. An NDJSON
// file may have no rows to tell its table by; then these lines do (only a
// packet trace's capture line has a trigger).
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
	if c := d.f.Capture; m == captureMeta && !d.json && sanitizeName(c.TriggerReason) != c.TriggerReason {
		r.note(fmt.Errorf("%q is not a sanitized name", c.TriggerReason))
	}
	if d.json {
		d.f.Table = t
	}
	return r.err
}

// row decodes one row of the file's table, appending it. NDJSON rows carry
// the lead columns, which must agree.
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
	json bool
	col  int
	err  error
}

// record lines an object's values up with the first n columns of t, which
// must be exactly its keys.
func (d *sinkDecoder) record(obj map[string]json.RawMessage, t *Table, n int) *record {
	r := &record{t: t, json: d.json, vals: make([][]byte, n)}
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
			// NDJSON's null stands for any of NaN and ±Inf and reads back as NaN.
			if *p = math.NaN(); !r.json || s != "null" {
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
			*p, err = ParseTrigger(r.str(s))
		case *[]uint8:
			*p, err = r.metrics(s)
		default:
			panic(fmt.Sprintf("telemetry: no decoding for a %T column", p))
		}
		r.note(err)
	}
}

// str undoes rowWriter.str: CSV fields arrive unquoted from csvFields, NDJSON
// values still carry their JSON quoting.
func (r *record) str(s string) string {
	if r.json {
		r.note(json.Unmarshal([]byte(s), &s))
	}
	return s
}

func (r *record) metrics(s string) (m []uint8, err error) {
	sep := '|'
	if r.json {
		if sep = ','; !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
			return nil, fmt.Errorf("%q is not an array", s)
		}
		s = s[1 : len(s)-1]
	}
	for _, p := range strings.FieldsFunc(s, func(c rune) bool { return c == sep }) {
		v, perr := strconv.ParseUint(p, 10, 8)
		m, err = append(m, uint8(v)), errors.Join(err, perr)
	}
	return m, err
}
