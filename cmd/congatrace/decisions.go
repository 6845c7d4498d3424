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
)

// decisionSummary accumulates the audit-trail rows of a decisions.csv /
// decisions.ndjson sink file: reason mix, per-(src,uplink,dst) path heat,
// and the feedback-age distribution of the winning remote metrics.
type decisionSummary struct {
	total   int64
	reasons map[string]int64
	paths   map[[3]int64]int64
	ageSum  int64
	ageMax  int64
	ageN    int64
	cold    int64
	tMin    int64
	tMax    int64
	haveAny bool
}

func newDecisionSummary() *decisionSummary {
	return &decisionSummary{reasons: map[string]int64{}, paths: map[[3]int64]int64{}}
}

func (s *decisionSummary) add(tNs, src, dst, uplink int64, reason string, ageNs int64) {
	s.total++
	s.reasons[reason]++
	if reason != "sticky" && uplink >= 0 {
		s.paths[[3]int64{src, uplink, dst}]++
	}
	switch {
	case ageNs >= 0:
		s.ageSum += ageNs
		s.ageN++
		if ageNs > s.ageMax {
			s.ageMax = ageNs
		}
	case reason != "sticky":
		s.cold++
	}
	if !s.haveAny || tNs < s.tMin {
		s.tMin = tNs
	}
	if !s.haveAny || tNs > s.tMax {
		s.tMax = tNs
	}
	s.haveAny = true
}

// isDecisionFile reports whether path is a decision-trace sink file
// (decisions.csv / decisions.ndjson, any directory).
func isDecisionFile(path string) bool {
	base := path
	if i := strings.LastIndexByte(base, '/'); i >= 0 {
		base = base[i+1:]
	}
	return strings.HasPrefix(base, "decisions")
}

// readDecisions summarizes a flowlet routing audit trail flushed by the
// telemetry decision plane: capture policy and suppression accounting,
// the routing-reason mix, and the hottest (srcLeaf, uplink, dstLeaf) paths.
func readDecisions(w io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()

	var cap capture
	sum := newDecisionSummary()
	ndjson := strings.HasSuffix(path, ".ndjson") || strings.HasSuffix(path, ".json")
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if ndjson {
			scanDecisionJSON(line, &cap, sum)
		} else {
			scanDecisionCSV(line, &cap, sum)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	printDecisionReport(w, path, cap, sum)
	return nil
}

func scanDecisionCSV(line string, cap *capture, sum *decisionSummary) {
	switch {
	case strings.HasPrefix(line, "time_ns,"):
		return
	case strings.HasPrefix(line, "# provenance="):
		cap.provenance = strings.TrimPrefix(line, "# provenance=")
		return
	case strings.HasPrefix(line, "#"):
		parseCaptureComment(line, cap)
		return
	}
	// time_ns,src_leaf,dst_leaf,uplink,reason,age_ns,metrics — no field is
	// ever quoted (reason is an enum name, metrics use "|").
	fields := strings.Split(line, ",")
	if len(fields) < 6 {
		return
	}
	var nums [4]int64
	for i := range nums {
		v, err := strconv.ParseInt(fields[i], 10, 64)
		if err != nil {
			return
		}
		nums[i] = v
	}
	age, err := strconv.ParseInt(fields[5], 10, 64)
	if err != nil {
		return
	}
	sum.add(nums[0], nums[1], nums[2], nums[3], fields[4], age)
}

func scanDecisionJSON(line string, cap *capture, sum *decisionSummary) {
	if scanMetaJSON(line, cap) {
		return
	}
	var ev struct {
		TimeNs  int64  `json:"time_ns"`
		SrcLeaf int64  `json:"src_leaf"`
		DstLeaf int64  `json:"dst_leaf"`
		Uplink  int64  `json:"uplink"`
		Reason  string `json:"reason"`
		AgeNs   *int64 `json:"age_ns"`
	}
	if err := json.Unmarshal([]byte(line), &ev); err != nil || ev.AgeNs == nil {
		return
	}
	sum.add(ev.TimeNs, ev.SrcLeaf, ev.DstLeaf, ev.Uplink, ev.Reason, *ev.AgeNs)
}

func printDecisionReport(w io.Writer, path string, c capture, sum *decisionSummary) {
	fmt.Fprintf(w, "decision trail: %s\n", path)
	if c.provenance != "" {
		fmt.Fprintf(w, "provenance: %s\n", c.provenance)
	}
	if !c.present {
		fmt.Fprintln(w, "capture: unknown (no capture header)")
	} else {
		fmt.Fprintf(w, "capture: %s, capacity %d decisions\n", c.Mode, c.Cap)
		fmt.Fprintf(w, "  recorded %d of %d decisions seen; %d suppressed by the %s policy\n",
			c.Recorded, c.Seen, c.Suppressed, c.Mode)
		if c.Recorded+c.Suppressed != c.Seen {
			fmt.Fprintf(w, "  WARNING: recorded+suppressed = %d != seen %d (file truncated or mixed?)\n",
				c.Recorded+c.Suppressed, c.Seen)
		}
	}
	if !sum.haveAny {
		fmt.Fprintln(w, "decisions: none recorded")
		return
	}
	span := time.Duration(sum.tMax - sum.tMin)
	fmt.Fprintf(w, "decisions: %d recorded over %v (%v .. %v)\n",
		sum.total, span, time.Duration(sum.tMin), time.Duration(sum.tMax))

	reasons := make([]string, 0, len(sum.reasons))
	for k := range sum.reasons {
		reasons = append(reasons, k)
	}
	sort.Slice(reasons, func(i, j int) bool { return sum.reasons[reasons[i]] > sum.reasons[reasons[j]] })
	for _, k := range reasons {
		n := sum.reasons[k]
		fmt.Fprintf(w, "  %-12s %10d  (%5.1f%%)\n", k, n, float64(n)/float64(sum.total)*100)
	}

	if sum.ageN > 0 {
		fmt.Fprintf(w, "feedback age of winning remote metric: mean %v, max %v over %d routed flowlets (%d cold — never fed back)\n",
			time.Duration(sum.ageSum/sum.ageN), time.Duration(sum.ageMax), sum.ageN, sum.cold)
	} else if sum.cold > 0 {
		fmt.Fprintf(w, "feedback age: all %d routed flowlets chose uplinks with no feedback yet (cold table)\n", sum.cold)
	}

	if len(sum.paths) == 0 {
		return
	}
	type hot struct {
		key [3]int64
		n   int64
	}
	hots := make([]hot, 0, len(sum.paths))
	for k, n := range sum.paths {
		hots = append(hots, hot{k, n})
	}
	sort.Slice(hots, func(i, j int) bool {
		if hots[i].n != hots[j].n {
			return hots[i].n > hots[j].n
		}
		return hots[i].key[0] < hots[j].key[0] ||
			hots[i].key[0] == hots[j].key[0] && (hots[i].key[1] < hots[j].key[1] ||
				hots[i].key[1] == hots[j].key[1] && hots[i].key[2] < hots[j].key[2])
	})
	top := len(hots)
	if top > 10 {
		top = 10
	}
	fmt.Fprintf(w, "hottest paths (of %d used): src leaf × uplink → dst leaf\n", len(hots))
	for _, h := range hots[:top] {
		fmt.Fprintf(w, "  l%d up%d -> l%d %10d flowlets\n", h.key[0], h.key[1], h.key[2], h.n)
	}
}
