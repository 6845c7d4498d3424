package telemetry

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"conga/internal/sim"
)

// sanitizeName makes a probe name filesystem-safe: "->" collapses to "-",
// any other character outside [A-Za-z0-9._-] becomes "-".
func sanitizeName(name string) string {
	name = strings.ReplaceAll(name, "->", "-")
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
			return r
		}
		return '-'
	}, name)
}

// SinkFile is one sink file in memory: what Write encodes as NDJSON and
// ReadSinkFile decodes; DESIGN.md §3.3 tabulates the bytes in between. A
// registry flushes its files after the engine has stopped, so their cost
// never perturbs simulation order.
type SinkFile struct {
	// Table says which of the row slices below is in use. A file with no
	// rows and no capture or summary line names no table and reads back
	// with Table nil.
	Table *Table
	// Provenance, when set, names the workload that drove the run.
	Provenance string
	// Capture is a trace's or decision trail's capture header; nil when the
	// file has none (files older than the capture policies).
	Capture *CaptureInfo
	// Probe and Unit are the lead columns of a series or CDF file.
	Probe, Unit string

	Counters  []CounterRow
	Points    []Point      // series
	CDF       [][2]float64 // (value, cumulative fraction)
	Trace     []TraceEvent
	Decisions []DecisionEvent // Metrics is empty for sticky hits, which carry none
	Summaries []PathSummary   // paths: one per leaf, ahead of the rows
	Paths     []PathRow

	// fill, when set, streams the rows from a probe's own buffers: it
	// writes each into row 0 of f's table, a one-row scratch slice, and
	// calls emit. A flush so encodes straight from the compact records and
	// never holds a reader-side copy of a trace or a series.
	fill func(emit func())
}

// Table is one record type's column schema: the names are the keys of every
// row. The first lead columns are constant per file (a series' probe name
// and unit), and every row carries them too.
type Table struct {
	Name string // and the file's: counters.ndjson, series_<probe>.ndjson
	cols []string
	lead int
	keys []string // `{"a":`, `,"b":`, … — the text before each value
}

func newTable(name string, lead int, cols ...string) *Table {
	t := &Table{Name: name, cols: cols, lead: lead}
	for i, c := range cols {
		open := ","
		if i == 0 {
			open = "{"
		}
		t.keys = append(t.keys, open+`"`+c+`":`)
	}
	return t
}

// The column names live here and nowhere else; SinkFile.row and the two
// header functions below say which field each one is.
var (
	CounterTable  = newTable("counters", 0, "group", "name", "counter", "value")
	SeriesTable   = newTable("series", 2, "probe", "unit", "time_ns", "value")
	CDFTable      = newTable("cdf", 2, "probe", "unit", "value", "fraction")
	TraceTable    = newTable("trace", 0, "time_ns", "event", "where", "flow", "src", "dst", "sport", "dport", "seq", "payload")
	DecisionTable = newTable("decisions", 0, "time_ns", "src_leaf", "dst_leaf", "uplink", "reason", "age_ns", "metrics")
	PathTable     = newTable("paths", 0, "leaf", "uplink", "dst_leaf", "flowlets", "bytes")

	tables = []*Table{CounterTable, SeriesTable, CDFTable, TraceTable, DecisionTable, PathTable}

	// The capture and summary header lines are rows of these two, nested
	// under the table's name. A decision trail has no trigger: its capture
	// line stops after captureCore fields.
	captureMeta = newTable("capture", 0, "mode", "cap", "recorded", "seen", "suppressed", "trigger", "triggered", "triggered_at_ns", "reason")
	summaryMeta = newTable("summary", 0, "leaf", "flowlets", "bytes", "imbalance", "entropy")
)

const captureCore = 5

// row returns pointers to the columns of the i-th row of f's table, in the
// table's column order (lead columns aside), for the encoder to read through
// and the decoder to write through. With grow, a row one past the last is
// appended first; without, it is nil.
func (f *SinkFile) row(i int, grow bool, to []any) []any {
	switch f.Table {
	case CounterTable:
		if r := at(&f.Counters, i, grow); r != nil {
			return append(to, &r.Group, &r.Name, &r.Counter, &r.Value)
		}
	case SeriesTable:
		if p := at(&f.Points, i, grow); p != nil {
			return append(to, &p.T, &p.V)
		}
	case CDFTable:
		if p := at(&f.CDF, i, grow); p != nil {
			return append(to, &p[0], &p[1])
		}
	case TraceTable:
		if e := at(&f.Trace, i, grow); e != nil {
			return append(to, &e.T, &e.Kind, &e.Where, &e.FlowID, &e.Src, &e.Dst, &e.SrcPort, &e.DstPort, &e.Seq, &e.Payload)
		}
	case DecisionTable:
		if e := at(&f.Decisions, i, grow); e != nil {
			return append(to, &e.T, &e.SrcLeaf, &e.DstLeaf, &e.Uplink, &e.Reason, &e.AgeNs, &e.Metrics)
		}
	case PathTable:
		if r := at(&f.Paths, i, grow); r != nil {
			return append(to, &r.Leaf, &r.Uplink, &r.DstLeaf, &r.Flowlets, &r.Bytes)
		}
	}
	return nil
}

func at[T any](rows *[]T, i int, grow bool) *T {
	if i == len(*rows) {
		if !grow {
			return nil
		}
		*rows = append(*rows, *new(T))
	}
	return &(*rows)[i]
}

// captureRow and summaryRow are row for the header tables.
func captureRow(c *CaptureInfo, to []any) []any {
	return append(to, &c.Mode, &c.Cap, &c.Recorded, &c.Seen, &c.Suppressed, &c.Trigger, &c.Triggered, &c.TriggeredAt, &c.TriggerReason)
}

func summaryRow(s *PathSummary, to []any) []any {
	return append(to, &s.Leaf, &s.Flowlets, &s.Bytes, &s.Imbalance, &s.Entropy)
}

// Write creates dir/<table>[_<probe>].ndjson and encodes f, whose Table must
// be set, into it. The directory is only created when the create fails for
// want of it, so a flush of hundreds of series files pays for it once.
func (f *SinkFile) Write(dir string) error {
	base := f.Table.Name
	if f.Table.lead > 0 {
		base += "_" + sanitizeName(f.Probe)
	}
	path := filepath.Join(dir, base+".ndjson")
	out, err := os.Create(path)
	if errors.Is(err, fs.ErrNotExist) {
		if err = os.MkdirAll(dir, 0o755); err == nil {
			out, err = os.Create(path)
		}
	}
	if err != nil {
		return err
	}
	err = f.encode(out)
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	return err
}

// encode writes the header lines — provenance, capture, summaries — and then
// the rows of f's table.
func (f *SinkFile) encode(out io.Writer) error {
	w := rowWriters.Get().(*rowWriter)
	*w = rowWriter{buf: w.buf[:0], rowStart: w.rowStart[:0], t: f.Table, col: f.Table.lead, out: out}
	if f.Provenance != "" {
		w.buf = append(appendJSONString(append(w.buf, `{"provenance":`...), f.Provenance), "}\n"...)
	}
	if f.Capture != nil {
		n := len(captureMeta.cols)
		if f.Table != TraceTable {
			n = captureCore
		}
		w.headerLine(captureMeta, captureRow(f.Capture, nil)[:n])
	}
	for i := range f.Summaries {
		w.headerLine(summaryMeta, summaryRow(&f.Summaries[i], nil))
	}
	for i, v := range []string{f.Probe, f.Unit}[:w.t.lead] {
		w.rowStart = appendJSONString(append(w.rowStart, w.t.keys[i]...), v)
	}
	// cols stays out of the pooled writer: its pointers would keep f's rows
	// alive into the next run.
	if f.fill != nil {
		cols := f.row(0, false, nil)
		f.fill(func() {
			w.values(cols)
			w.end()
		})
	} else {
		var cols []any
		for i := 0; ; i++ {
			if cols = f.row(i, false, cols[:0]); cols == nil {
				break
			}
			w.values(cols)
			w.end()
		}
	}
	w.flush()
	err := w.err
	w.out = nil
	rowWriters.Put(w)
	return err
}

// rowWriter encodes rows of one table into one file: before each value its
// key, then the value with strconv.Append*, so a row costs no allocation and
// no reflection; the buffer is handed to the file in large writes and
// recycled across files.
type rowWriter struct {
	buf []byte
	t   *Table
	col int
	// rowStart is what every row opens with when the table has lead
	// columns: `{"probe":"…","unit":"…"`, encoded once per file.
	rowStart []byte
	out      io.Writer
	err      error
}

const rowFlushAt = 60 << 10

var rowWriters = sync.Pool{New: func() any { return &rowWriter{buf: make([]byte, 0, 64<<10)} }}

func (w *rowWriter) flush() {
	if w.err == nil {
		_, w.err = w.out.Write(w.buf)
	}
	w.buf = w.buf[:0]
}

// headerLine writes one row of a header table, nested under its name, ahead
// of the file's rows.
func (w *rowWriter) headerLine(m *Table, cols []any) {
	t := w.t
	w.t, w.col = m, 0
	w.buf = append(w.buf, `{"`+m.Name+`":`...)
	w.values(cols)
	w.t = t
	w.buf = append(w.buf, '}')
	w.end()
}

// values appends a row's columns: before each its key, then the value as the
// Go type behind its pointer is written.
func (w *rowWriter) values(cols []any) {
	for _, p := range cols {
		if w.col == w.t.lead {
			w.buf = append(w.buf, w.rowStart...)
		}
		w.buf = append(w.buf, w.t.keys[w.col]...)
		w.col++
		switch p := p.(type) {
		case *int:
			w.buf = strconv.AppendInt(w.buf, int64(*p), 10)
		case *int64:
			w.buf = strconv.AppendInt(w.buf, *p, 10)
		case *sim.Time:
			w.buf = strconv.AppendInt(w.buf, int64(*p), 10)
		case *uint64:
			w.buf = strconv.AppendUint(w.buf, *p, 10)
		case *bool:
			w.buf = strconv.AppendBool(w.buf, *p)
		case *float64:
			// Shortest round-trip form; JSON turns NaN and ±Inf into null
			// (probes never produce them, but the output must stay parseable).
			if math.IsNaN(*p) || math.IsInf(*p, 0) {
				w.buf = append(w.buf, "null"...)
			} else {
				w.buf = strconv.AppendFloat(w.buf, *p, 'g', -1, 64)
			}
		case *string:
			w.buf = appendJSONString(w.buf, *p)
		case fmt.Stringer: // an event kind, decision reason, capture mode or trigger
			w.buf = appendJSONString(w.buf, p.String())
		case *[]uint8:
			w.metrics(*p)
		default:
			panic(fmt.Sprintf("telemetry: no encoding for a %T column", p))
		}
	}
}

func (w *rowWriter) end() {
	w.buf = append(w.buf, '}', '\n')
	w.col = w.t.lead
	if len(w.buf) >= rowFlushAt {
		w.flush()
	}
}

// metrics appends a decision's candidate metric vector as an array ([] for
// sticky hits, which carry none).
func (w *rowWriter) metrics(m []uint8) {
	w.buf = append(w.buf, '[')
	for i, v := range m {
		if i > 0 {
			w.buf = append(w.buf, ',')
		}
		w.buf = strconv.AppendUint(w.buf, uint64(v), 10)
	}
	w.buf = append(w.buf, ']')
}

// appendJSONString quotes s for JSON: quotes, backslashes and control
// characters are escaped, invalid UTF-8 becomes U+FFFD, everything else
// passes through.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	for _, r := range s {
		switch {
		case r == '"':
			b = append(b, `\"`...)
		case r == '\\':
			b = append(b, `\\`...)
		case r == '\n':
			b = append(b, `\n`...)
		case r == '\t':
			b = append(b, `\t`...)
		case r < 0x20:
			b = fmt.Appendf(b, `\u%04x`, r)
		default:
			b = utf8.AppendRune(b, r)
		}
	}
	return append(b, '"')
}
