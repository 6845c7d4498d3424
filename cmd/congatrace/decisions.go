package main

import (
	"fmt"
	"io"
	"sort"
	"time"

	"conga/internal/telemetry"
)

// printDecisionReport summarizes a flowlet routing audit trail flushed by
// the telemetry decision plane: capture policy and suppression accounting,
// the routing-reason mix, the feedback-age distribution of the winning remote
// metrics, and the hottest (srcLeaf, uplink, dstLeaf) paths.
func printDecisionReport(w io.Writer, path string, f *telemetry.SinkFile) {
	fmt.Fprintf(w, "decision trail: %s\n", path)
	if f.Provenance != "" {
		fmt.Fprintf(w, "provenance: %s\n", f.Provenance)
	}
	if c := f.Capture; c == nil {
		fmt.Fprintln(w, "capture: unknown (no capture header)")
	} else {
		fmt.Fprintf(w, "capture: %s, capacity %d decisions\n", c.Mode, c.Cap)
		fmt.Fprintf(w, "  recorded %d of %d decisions seen; %d suppressed by the %s policy\n",
			c.Recorded, c.Seen, c.Suppressed, c.Mode)
		if uint64(c.Recorded)+c.Suppressed != uint64(c.Seen) {
			fmt.Fprintf(w, "  WARNING: recorded+suppressed = %d != seen %d (file truncated or mixed?)\n",
				uint64(c.Recorded)+c.Suppressed, c.Seen)
		}
		warnRecorded(w, c, len(f.Decisions))
	}
	if len(f.Decisions) == 0 {
		fmt.Fprintln(w, "decisions: none recorded")
		return
	}
	reasons := map[telemetry.DecisionReason]int{}
	paths := map[[3]int]int{}
	var ageSum, ageMax, ageN, cold int64
	tMin, tMax := f.Decisions[0].T, f.Decisions[0].T
	for _, e := range f.Decisions {
		reasons[e.Reason]++
		routed := e.Reason != telemetry.ReasonSticky
		if routed && e.Uplink >= 0 {
			paths[[3]int{e.SrcLeaf, e.Uplink, e.DstLeaf}]++
		}
		switch {
		case e.AgeNs >= 0:
			ageSum += e.AgeNs
			ageN++
			ageMax = max(ageMax, e.AgeNs)
		case routed:
			cold++
		}
		tMin, tMax = min(tMin, e.T), max(tMax, e.T)
	}
	fmt.Fprintf(w, "decisions: %d recorded over %v (%v .. %v)\n",
		len(f.Decisions), time.Duration(tMax-tMin), time.Duration(tMin), time.Duration(tMax))
	printMix(w, reasons, len(f.Decisions))

	if ageN > 0 {
		fmt.Fprintf(w, "feedback age of winning remote metric: mean %v, max %v over %d routed flowlets (%d cold — never fed back)\n",
			time.Duration(ageSum/ageN), time.Duration(ageMax), ageN, cold)
	} else if cold > 0 {
		fmt.Fprintf(w, "feedback age: all %d routed flowlets chose uplinks with no feedback yet (cold table)\n", cold)
	}

	if len(paths) == 0 {
		return
	}
	hots := make([][3]int, 0, len(paths))
	for k := range paths {
		hots = append(hots, k)
	}
	sort.Slice(hots, func(i, j int) bool {
		a, b := hots[i], hots[j]
		if paths[a] != paths[b] {
			return paths[a] > paths[b]
		}
		return a[0] < b[0] || a[0] == b[0] && (a[1] < b[1] || a[1] == b[1] && a[2] < b[2])
	})
	fmt.Fprintf(w, "hottest paths (of %d used): src leaf × uplink → dst leaf\n", len(hots))
	for _, h := range hots[:min(len(hots), 10)] {
		fmt.Fprintf(w, "  l%d up%d -> l%d %10d flowlets\n", h[0], h[1], h[2], paths[h])
	}
}
