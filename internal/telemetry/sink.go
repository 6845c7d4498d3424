package telemetry

import (
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"
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

// FileSink writes a registry's probes at flush time, which is after the
// engine has stopped, so its cost never perturbs simulation order. It writes
// one file per probe into Dir (created if missing), as CSV
// — counters.csv, series_<name>.csv (columns time_ns,value), trace.csv,
// decisions.csv, paths.csv — or, with NDJSON set, as newline-delimited JSON
// under the same names, one object per row keyed by the CSV column names.
// When Provenance is set every file but the series opens with a line naming
// the workload that drove the run. Provenance, a trace's capture policy and
// the per-leaf balance summaries are "# key=value" comment lines in CSV
// (parsed back by cmd/congatrace -read) and {"provenance":…}, {"capture":…},
// {"summary":…} meta lines in NDJSON, which readers skip by key.
type FileSink struct {
	Dir        string
	Provenance string
	NDJSON     bool
}

// table is one record type's column schema. CSV prints the names once as a
// header line; NDJSON repeats them as the keys of every row. The first lead
// columns are constant per file (a series' probe name and unit): NDJSON
// carries them on every row, CSV leaves them to the file name.
type table struct {
	cols []string
	lead int
	keys []string // `{"a":`, `,"b":`, … — the NDJSON text before each value
}

func newTable(lead int, cols ...string) *table {
	t := &table{cols: cols, lead: lead}
	for i, c := range cols {
		open := ","
		if i == 0 {
			open = "{"
		}
		t.keys = append(t.keys, open+`"`+c+`":`)
	}
	return t
}

var (
	counterTable  = newTable(0, "group", "name", "counter", "value")
	seriesTable   = newTable(2, "probe", "unit", "time_ns", "value")
	traceTable    = newTable(0, "time_ns", "event", "where", "flow", "src", "dst", "sport", "dport", "seq", "payload")
	decisionTable = newTable(0, "time_ns", "src_leaf", "dst_leaf", "uplink", "reason", "age_ns", "metrics")
	pathTable     = newTable(0, "leaf", "uplink", "dst_leaf", "flowlets", "bytes")
)

// Counters writes the flat counter rows.
func (s FileSink) Counters(rows []CounterRow) error {
	return s.write("counters", counterTable, func(w *rowWriter) {
		w.provenance(s.Provenance)
		w.header()
		for _, r := range rows {
			w.token(r.Group)
			w.str(r.Name)
			w.token(r.Counter)
			w.uint(r.Value)
			w.end()
		}
	})
}

// Series writes one series' points.
func (s FileSink) Series(sr *Series) error {
	return s.write("series_"+sanitizeName(sr.Name()), seriesTable, func(w *rowWriter) {
		w.leadValues(sr.Name(), sr.Unit())
		w.header()
		for _, p := range sr.Points() {
			w.ints(int64(p.T))
			w.float(p.V)
			w.end()
		}
	})
}

// Trace writes the packet trace under its capture header.
func (s FileSink) Trace(tr *PacketTrace) error {
	return s.write("trace", traceTable, func(w *rowWriter) {
		w.provenance(s.Provenance)
		w.capture(tr.Info(), true)
		w.header()
		for _, e := range tr.Events() {
			w.ints(int64(e.T))
			w.token(e.Kind.String())
			w.str(e.Where)
			w.uint(e.FlowID)
			w.ints(int64(e.Src), int64(e.Dst), int64(e.SrcPort), int64(e.DstPort), e.Seq, int64(e.Payload))
			w.end()
		}
	})
}

// Decisions writes one row per retained SelectUplink outcome;
// the candidate metric vector is "3|0|7|2" inside one CSV field ("" for
// sticky hits, which carry none) and an array in NDJSON.
func (s FileSink) Decisions(tr *DecisionTrace) error {
	return s.write("decisions", decisionTable, func(w *rowWriter) {
		w.provenance(s.Provenance)
		w.capture(tr.Info(), false)
		w.header()
		for _, e := range tr.Events() {
			w.ints(int64(e.T), int64(e.SrcLeaf), int64(e.DstLeaf), int64(e.Uplink))
			w.token(e.Reason.String())
			w.ints(e.AgeNs)
			w.metrics(e.Metrics)
			w.end()
		}
	})
}

// Paths writes the non-empty path load matrix cells, after one summary line
// per leaf carrying the balance figures.
func (s FileSink) Paths(rows []PathRow, sums []PathSummary) error {
	return s.write("paths", pathTable, func(w *rowWriter) {
		w.provenance(s.Provenance)
		for _, sm := range sums {
			w.summary(sm)
		}
		w.header()
		for _, r := range rows {
			w.ints(int64(r.Leaf), int64(r.Uplink), int64(r.DstLeaf))
			w.uint(r.Flowlets)
			w.uint(r.Bytes)
			w.end()
		}
	})
}

// rowWriter encodes rows of one table into one file, as CSV or NDJSON. Each
// value method appends the column's separator or key and then the value
// with strconv.Append*, so a row costs no allocation and no reflection; the
// buffer is handed to the file in large writes and recycled across files.
type rowWriter struct {
	buf  []byte
	t    *table
	json bool
	col  int
	// rowStart is what every NDJSON row opens with when the table has lead
	// columns: `{"probe":"…","unit":"…"`, encoded once per file.
	rowStart []byte
	f        *os.File
	err      error
}

const rowFlushAt = 60 << 10

var rowWriters = sync.Pool{New: func() any { return &rowWriter{buf: make([]byte, 0, 64<<10)} }}

// write creates Dir/base.{csv,ndjson}, runs emit against it and closes it.
// The directory is only created when the create fails for want of it, so a
// flush of hundreds of series files pays for it once.
func (s FileSink) write(base string, t *table, emit func(w *rowWriter)) error {
	ext := ".csv"
	if s.NDJSON {
		ext = ".ndjson"
	}
	path := filepath.Join(s.Dir, base+ext)
	f, err := os.Create(path)
	if errors.Is(err, fs.ErrNotExist) {
		if err = os.MkdirAll(s.Dir, 0o755); err == nil {
			f, err = os.Create(path)
		}
	}
	if err != nil {
		return err
	}
	w := rowWriters.Get().(*rowWriter)
	*w = rowWriter{buf: w.buf[:0], rowStart: w.rowStart[:0], t: t, json: s.NDJSON, col: t.lead, f: f}
	emit(w)
	w.flush()
	err = w.err
	w.f = nil
	rowWriters.Put(w)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func (w *rowWriter) flush() {
	if w.err == nil {
		_, w.err = w.f.Write(w.buf)
	}
	w.buf = w.buf[:0]
}

// next appends what precedes the next value of the row.
func (w *rowWriter) next() {
	switch {
	case w.json:
		if w.col == w.t.lead {
			w.buf = append(w.buf, w.rowStart...)
		}
		w.buf = append(w.buf, w.t.keys[w.col]...)
	case w.col > w.t.lead:
		w.buf = append(w.buf, ',')
	}
	w.col++
}

func (w *rowWriter) ints(vs ...int64) {
	for _, v := range vs {
		w.next()
		w.buf = strconv.AppendInt(w.buf, v, 10)
	}
}

func (w *rowWriter) uint(v uint64) { w.next(); w.buf = strconv.AppendUint(w.buf, v, 10) }

func (w *rowWriter) float(v float64) { w.next(); w.buf = appendFloat(w.buf, v, w.json) }

// appendFloat appends v in shortest round-trip form; JSON turns NaN and
// ±Inf into null (probes never produce them, but the output must stay
// parseable).
func appendFloat(b []byte, v float64, json bool) []byte {
	if json && (math.IsNaN(v) || math.IsInf(v, 0)) {
		return append(b, "null"...)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// token appends a string from a closed vocabulary (counter groups, event
// kinds, decision reasons): bare in CSV, quoted in NDJSON.
func (w *rowWriter) token(s string) {
	w.next()
	if w.json {
		w.buf = appendJSONString(w.buf, s)
	} else {
		w.buf = append(w.buf, s...)
	}
}

// str appends a free-form name, escaped as the format requires. Link names
// like "l0->s0.0" are clean, but probe names are arbitrary.
func (w *rowWriter) str(s string) {
	w.next()
	switch {
	case w.json:
		w.buf = appendJSONString(w.buf, s)
	case strings.ContainsAny(s, ",\"\n"):
		w.buf = append(w.buf, '"')
		w.buf = append(w.buf, strings.ReplaceAll(s, `"`, `""`)...)
		w.buf = append(w.buf, '"')
	default:
		w.buf = append(w.buf, s...)
	}
}

func (w *rowWriter) metrics(m []uint8) {
	w.next()
	sep := byte('|')
	if w.json {
		sep = ','
		w.buf = append(w.buf, '[')
	}
	for i, v := range m {
		if i > 0 {
			w.buf = append(w.buf, sep)
		}
		w.buf = strconv.AppendUint(w.buf, uint64(v), 10)
	}
	if w.json {
		w.buf = append(w.buf, ']')
	}
}

// leadValues sets the table's lead columns for the whole file.
func (w *rowWriter) leadValues(vals ...string) {
	for i, v := range vals {
		w.rowStart = appendJSONString(append(w.rowStart, w.t.keys[i]...), v)
	}
}

func (w *rowWriter) end() {
	if w.json {
		w.buf = append(w.buf, '}')
	}
	w.buf = append(w.buf, '\n')
	w.col = w.t.lead
	if len(w.buf) >= rowFlushAt {
		w.flush()
	}
}

// header writes the CSV column line; NDJSON rows name their own columns.
func (w *rowWriter) header() {
	if !w.json {
		w.buf = append(w.buf, strings.Join(w.t.cols[w.t.lead:], ",")...)
		w.buf = append(w.buf, '\n')
	}
}

func (w *rowWriter) provenance(p string) {
	switch {
	case p == "":
	case w.json:
		w.buf = append(appendJSONString(append(w.buf, `{"provenance":`...), p), "}\n"...)
	default:
		w.buf = append(append(append(w.buf, "# provenance="...), p...), '\n')
	}
}

// capture writes a trace's capture policy ahead of its rows; the decision
// trace has no trigger, so its NDJSON form leaves those fields out.
func (w *rowWriter) capture(info CaptureInfo, trigger bool) {
	q := func(s string) []byte { return appendJSONString(nil, s) }
	switch {
	case !w.json:
		w.buf = fmt.Appendf(w.buf, "# capture=%s cap=%d recorded=%d seen=%d suppressed=%d trigger=%s triggered=%t triggered_at_ns=%d reason=%s\n",
			info.Mode, info.Cap, info.Recorded, info.Seen, info.Suppressed,
			info.Trigger, info.Triggered, int64(info.TriggeredAt), sanitizeName(info.TriggerReason))
	case trigger:
		w.buf = fmt.Appendf(w.buf, `{"capture":{"mode":%s,"cap":%d,"recorded":%d,"seen":%d,"suppressed":%d,"trigger":%s,"triggered":%t,"triggered_at_ns":%d,"reason":%s}}`+"\n",
			q(info.Mode.String()), info.Cap, info.Recorded, info.Seen, info.Suppressed,
			q(info.Trigger.String()), info.Triggered, int64(info.TriggeredAt), q(info.TriggerReason))
	default:
		w.buf = fmt.Appendf(w.buf, `{"capture":{"mode":%s,"cap":%d,"recorded":%d,"seen":%d,"suppressed":%d}}`+"\n",
			q(info.Mode.String()), info.Cap, info.Recorded, info.Seen, info.Suppressed)
	}
}

func (w *rowWriter) summary(sm PathSummary) {
	format := "# summary leaf=%d flowlets=%d bytes=%d imbalance=%s entropy=%s\n"
	if w.json {
		format = `{"summary":{"leaf":%d,"flowlets":%d,"bytes":%d,"imbalance":%s,"entropy":%s}}` + "\n"
	}
	w.buf = fmt.Appendf(w.buf, format, sm.Leaf, sm.Flowlets, sm.Bytes,
		appendFloat(nil, sm.Imbalance, w.json), appendFloat(nil, sm.Entropy, w.json))
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
