package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"conga/internal/replay"
)

// readTrace prints a summary of any trace file this repo produces: a
// workload replay trace (internal/replay, either format — header with
// version, fingerprint and flow count), a flowlet routing audit trail
// (decisions.csv / decisions.ndjson from a -decisions run), or a packet
// trace flushed by internal/telemetry: trace.csv (header comment line "# capture=...
// cap=... suppressed=...") or trace.ndjson (leading {"capture":{...}}
// meta object). Older files without the header still summarize; the
// capture section just reports "unknown (no capture header)".
func readTrace(w io.Writer, path string) error {
	if replay.IsTraceFile(path) {
		return readReplayTrace(w, path)
	}
	if isDecisionFile(path) {
		return readDecisions(w, path)
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()

	if strings.HasSuffix(path, ".ndjson") || strings.HasSuffix(path, ".json") {
		return readNDJSON(w, path, f)
	}
	return readCSV(w, path, f)
}

// readReplayTrace summarizes a workload replay trace: provenance header,
// compatibility fingerprint, and the arrival mix.
func readReplayTrace(w io.Writer, path string) error {
	tr, err := replay.Read(path)
	if err != nil {
		return err
	}
	h := tr.Header
	fmt.Fprintf(w, "replay trace: %s (format version %d)\n", path, h.Version)
	fmt.Fprintf(w, "recorded by: %s harness, scheme %s, workload %s, load %.0f%%, seed %d\n",
		h.Harness, h.Scheme, h.Workload, h.Load*100, h.Seed)
	fmt.Fprintf(w, "topology: %s (fingerprint %016x — replay requires this fabric shape)\n", h.Topo, h.TopoFP)
	fmt.Fprintf(w, "flows: %d arrivals, %.1f MB offered, spanning %v of a %v window\n",
		h.Flows, float64(h.Bytes)/1e6, time.Duration(h.SpanNs), time.Duration(h.DurationNs))
	if len(tr.Flows) == 0 {
		return nil
	}
	kinds := map[string]int{}
	kindBytes := map[string]int64{}
	var minSize, maxSize int64
	minSize = tr.Flows[0].Size
	for _, f := range tr.Flows {
		kinds[f.Kind]++
		kindBytes[f.Kind] += f.Size
		if f.Size < minSize {
			minSize = f.Size
		}
		if f.Size > maxSize {
			maxSize = f.Size
		}
	}
	names := make([]string, 0, len(kinds))
	for k := range kinds {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		name := k
		if name == "" {
			name = "(untagged)"
		}
		fmt.Fprintf(w, "  %-12s %8d arrivals, %10.1f MB\n", name, kinds[k], float64(kindBytes[k])/1e6)
	}
	fmt.Fprintf(w, "sizes: %d B .. %.1f MB, mean %.1f KB\n",
		minSize, float64(maxSize)/1e6, float64(h.Bytes)/float64(h.Flows)/1e3)
	return nil
}

// capture is the policy block both formats carry. Fields mirror
// telemetry.CaptureInfo but are parsed from the file so the reader works
// on traces produced by other builds.
type capture struct {
	present    bool
	provenance string
	Mode       string `json:"mode"`
	Cap        int64  `json:"cap"`
	Recorded   int64  `json:"recorded"`
	Seen       int64  `json:"seen"`
	Suppressed int64  `json:"suppressed"`
	Trigger    string `json:"trigger"`
	Triggered  bool   `json:"triggered"`
	AtNs       int64  `json:"triggered_at_ns"`
	Reason     string `json:"reason"`
}

// eventSummary accumulates per-kind counts and the time span while
// scanning event rows.
type eventSummary struct {
	total   int64
	kinds   map[string]int64
	flows   map[int64]struct{}
	tMin    int64
	tMax    int64
	haveAny bool
}

func newEventSummary() *eventSummary {
	return &eventSummary{kinds: map[string]int64{}, flows: map[int64]struct{}{}}
}

func (s *eventSummary) add(tNs int64, kind string, flow int64) {
	s.total++
	s.kinds[kind]++
	s.flows[flow] = struct{}{}
	if !s.haveAny || tNs < s.tMin {
		s.tMin = tNs
	}
	if !s.haveAny || tNs > s.tMax {
		s.tMax = tNs
	}
	s.haveAny = true
}

func readCSV(w io.Writer, path string, f *os.File) error {
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var cap capture
	sum := newEventSummary()
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "" || strings.HasPrefix(line, "time_ns,"):
			continue
		case strings.HasPrefix(line, "# provenance="):
			cap.provenance = strings.TrimPrefix(line, "# provenance=")
			continue
		case strings.HasPrefix(line, "#"):
			parseCaptureComment(line, &cap)
			continue
		}
		// time_ns,event,where,flow,... — time and event are never quoted;
		// flow is field 3 when "where" is unquoted (link and host names
		// contain no commas; a quoted where just loses the flow count for
		// that row, nothing else).
		fields := strings.Split(line, ",")
		if len(fields) < 4 {
			continue
		}
		tNs, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			continue
		}
		flow := int64(-1)
		if v, err := strconv.ParseInt(fields[3], 10, 64); err == nil {
			flow = v
		}
		sum.add(tNs, fields[1], flow)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	printTraceReport(w, path, cap, sum)
	return nil
}

// parseCaptureComment parses the "# capture=head cap=65536 recorded=..."
// line the CSV FileSink writes as the first line of trace.csv.
func parseCaptureComment(line string, c *capture) {
	for _, tok := range strings.Fields(strings.TrimPrefix(line, "#")) {
		k, v, ok := strings.Cut(tok, "=")
		if !ok {
			continue
		}
		switch k {
		case "capture":
			c.Mode, c.present = v, true
		case "cap":
			c.Cap, _ = strconv.ParseInt(v, 10, 64)
		case "recorded":
			c.Recorded, _ = strconv.ParseInt(v, 10, 64)
		case "seen":
			c.Seen, _ = strconv.ParseInt(v, 10, 64)
		case "suppressed":
			c.Suppressed, _ = strconv.ParseInt(v, 10, 64)
		case "trigger":
			c.Trigger = v
		case "triggered":
			c.Triggered = v == "true"
		case "triggered_at_ns":
			c.AtNs, _ = strconv.ParseInt(v, 10, 64)
		case "reason":
			c.Reason = v
		}
	}
}

// scanMetaJSON folds an NDJSON meta line — {"provenance":…} or {"capture":…},
// which a sink file carries ahead of its rows — into c and reports whether
// line was one. The capture object replaces the policy fields only: the
// provenance line comes first in the file and must survive it.
func scanMetaJSON(line string, c *capture) bool {
	switch {
	case strings.HasPrefix(line, `{"provenance":`):
		var meta struct {
			Provenance string `json:"provenance"`
		}
		if err := json.Unmarshal([]byte(line), &meta); err == nil {
			c.provenance = meta.Provenance
		}
	case strings.HasPrefix(line, `{"capture":`):
		var meta struct {
			Capture capture `json:"capture"`
		}
		if err := json.Unmarshal([]byte(line), &meta); err == nil {
			meta.Capture.present, meta.Capture.provenance = true, c.provenance
			*c = meta.Capture
		}
	default:
		return false
	}
	return true
}

func readNDJSON(w io.Writer, path string, f *os.File) error {
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var cap capture
	sum := newEventSummary()
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if scanMetaJSON(line, &cap) {
			continue
		}
		var ev struct {
			TimeNs int64  `json:"time_ns"`
			Event  string `json:"event"`
			Flow   int64  `json:"flow"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			continue
		}
		sum.add(ev.TimeNs, ev.Event, ev.Flow)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	printTraceReport(w, path, cap, sum)
	return nil
}

func printTraceReport(w io.Writer, path string, c capture, sum *eventSummary) {
	fmt.Fprintf(w, "trace: %s\n", path)
	if c.provenance != "" {
		fmt.Fprintf(w, "provenance: %s\n", c.provenance)
	}
	if !c.present {
		fmt.Fprintln(w, "capture: unknown (no capture header; pre-policy trace, assumed keep-head)")
	} else {
		fmt.Fprintf(w, "capture: %s, capacity %d events\n", c.Mode, c.Cap)
		fmt.Fprintf(w, "  recorded %d of %d matching events seen; %d suppressed by the %s policy\n",
			c.Recorded, c.Seen, c.Suppressed, c.Mode)
		switch {
		case c.Trigger == "" || c.Trigger == "none":
			fmt.Fprintln(w, "  trigger: none")
		case c.Triggered:
			fmt.Fprintf(w, "  trigger: %s — FIRED at %v (%s); trace frozen\n",
				c.Trigger, time.Duration(c.AtNs), c.Reason)
		default:
			fmt.Fprintf(w, "  trigger: %s — armed, never fired\n", c.Trigger)
		}
	}
	if !sum.haveAny {
		fmt.Fprintln(w, "events: none recorded")
		return
	}
	span := time.Duration(sum.tMax - sum.tMin)
	fmt.Fprintf(w, "events: %d recorded over %v (%v .. %v), %d distinct flows\n",
		sum.total, span, time.Duration(sum.tMin), time.Duration(sum.tMax), len(sum.flows))
	kinds := make([]string, 0, len(sum.kinds))
	for k := range sum.kinds {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return sum.kinds[kinds[i]] > sum.kinds[kinds[j]] })
	for _, k := range kinds {
		n := sum.kinds[k]
		fmt.Fprintf(w, "  %-12s %10d  (%5.1f%%)\n", k, n, float64(n)/float64(sum.total)*100)
	}
}
