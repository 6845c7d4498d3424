package main

import (
	"fmt"
	"io"
	"sort"
	"time"

	"conga/internal/replay"
	"conga/internal/telemetry"
)

// readTrace prints a summary of any trace file this repo produces: a
// workload replay trace (internal/replay — header with version,
// fingerprint and flow count), or a packet trace or flowlet routing
// audit trail flushed by internal/telemetry, under any file name:
// telemetry.ReadSinkFile says which table the file holds. Files
// older than the capture header still summarize; the capture section just
// reports "unknown (no capture header)".
func readTrace(w io.Writer, path string) error {
	if replay.IsTraceFile(path) {
		return readReplayTrace(w, path)
	}
	f, err := telemetry.ReadSinkFile(path)
	if err != nil {
		return err
	}
	switch f.Table {
	case telemetry.TraceTable:
		printTraceReport(w, path, f)
	case telemetry.DecisionTable:
		printDecisionReport(w, path, f)
	case nil:
		return fmt.Errorf("%s: no rows and no capture header: neither a packet trace nor a decision trail", path)
	default:
		return fmt.Errorf("%s holds the %s table, not a packet trace or a decision trail", path, f.Table.Name)
	}
	return nil
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

// warnRecorded flags a capture header whose recorded count is not the number
// of rows under it.
func warnRecorded(w io.Writer, c *telemetry.CaptureInfo, rows int) {
	if c.Recorded != rows {
		fmt.Fprintf(w, "  WARNING: header says recorded %d but the file holds %d rows (file truncated or mixed?)\n", c.Recorded, rows)
	}
}

func printTraceReport(w io.Writer, path string, f *telemetry.SinkFile) {
	fmt.Fprintf(w, "trace: %s\n", path)
	if f.Provenance != "" {
		fmt.Fprintf(w, "provenance: %s\n", f.Provenance)
	}
	if c := f.Capture; c == nil {
		fmt.Fprintln(w, "capture: unknown (no capture header; pre-policy trace, assumed keep-head)")
	} else {
		fmt.Fprintf(w, "capture: %s, capacity %d events\n", c.Mode, c.Cap)
		fmt.Fprintf(w, "  recorded %d of %d matching events seen; %d suppressed by the %s policy\n",
			c.Recorded, c.Seen, c.Suppressed, c.Mode)
		warnRecorded(w, c, len(f.Trace))
		switch {
		case c.Trigger == 0:
			fmt.Fprintln(w, "  trigger: none")
		case c.Triggered:
			fmt.Fprintf(w, "  trigger: %s — FIRED at %v (%s); trace frozen\n",
				c.Trigger, time.Duration(c.TriggeredAt), c.TriggerReason)
		default:
			fmt.Fprintf(w, "  trigger: %s — armed, never fired\n", c.Trigger)
		}
	}
	if len(f.Trace) == 0 {
		fmt.Fprintln(w, "events: none recorded")
		return
	}
	counts := map[telemetry.TraceKind]int{}
	flows := map[uint64]struct{}{}
	tMin, tMax := f.Trace[0].T, f.Trace[0].T
	for _, e := range f.Trace {
		counts[e.Kind]++
		flows[e.FlowID] = struct{}{}
		tMin, tMax = min(tMin, e.T), max(tMax, e.T)
	}
	fmt.Fprintf(w, "events: %d recorded over %v (%v .. %v), %d distinct flows\n",
		len(f.Trace), time.Duration(tMax-tMin), time.Duration(tMin), time.Duration(tMax), len(flows))
	printMix(w, counts, len(f.Trace))
}

// printMix prints one line per kind of row, most frequent first.
func printMix[K interface {
	~uint8
	String() string
}](w io.Writer, counts map[K]int, total int) {
	kinds := make([]K, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool {
		if counts[kinds[i]] != counts[kinds[j]] {
			return counts[kinds[i]] > counts[kinds[j]]
		}
		return kinds[i] < kinds[j]
	})
	for _, k := range kinds {
		fmt.Fprintf(w, "  %-12s %10d  (%5.1f%%)\n", k, counts[k], float64(counts[k])/float64(total)*100)
	}
}
