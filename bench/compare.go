package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// loadReports reads a set file, or a single workload's report, into a map
// by workload name.
func loadReports(path string) (map[string]*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set setFile
	if err := json.Unmarshal(data, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(set.Reports) == 0 {
		var one report
		if err := json.Unmarshal(data, &one); err != nil || one.Workload == "" {
			return nil, fmt.Errorf("%s: neither a set file nor a report", path)
		}
		set.Reports = []*report{&one}
	}
	m := map[string]*report{}
	for _, r := range set.Reports {
		if !r.Traced {
			m[r.Workload] = r
		}
	}
	if len(m) == 0 {
		return nil, fmt.Errorf("%s: no timed (untraced) reports to compare", path)
	}
	return m, nil
}

// verdict applies one metric's direction and bound to two sets of passes.
// worse is how much b's value is worse than a's as a share of a's value.
// The result is unresolved when either set's own passes spread wider than
// the bound — unless every pass of one side beats every pass of the other
// (from ten values a side: the quartile ranges do not overlap), which no
// spread can explain.
func verdict(d metricDef, a, b sample) (status string, worse float64) {
	va, vb := d.value(a), d.value(b)
	worse = (vb - va) / va
	if d.better == "higher" {
		worse = -worse
	}
	alo, ahi := a.edges()
	blo, bhi := b.edges()
	separated := ahi < blo || bhi < alo
	switch {
	case (a.spread() > d.bound || b.spread() > d.bound) && !separated:
		return "unresolved", worse
	case worse > d.bound:
		return "regressed", worse
	}
	return "ok", worse
}

// compareFiles prints one row per (workload, end-to-end metric) with both
// values, the ratio with its base, and the verdict; it returns the number
// of regressed rows. Exact counts that should repeat are listed after.
func compareFiles(w io.Writer, pathA, pathB string) (regressed int, err error) {
	a, err := loadReports(pathA)
	if err != nil {
		return 0, err
	}
	b, err := loadReports(pathB)
	if err != nil {
		return 0, err
	}
	fmt.Fprintf(w, "# base a = %s, b = %s; ratio = b/a; worse = share of a's value by which b is worse (negative: better)\n", pathA, pathB)
	fmt.Fprintf(w, "%-15s %-19s %14s %14s %8s %8s %6s  %s\n", "workload", "metric", "a", "b", "b/a", "worse", "bound", "verdict")
	for _, wl := range workloads {
		ra, rb := a[wl.name], b[wl.name]
		if ra == nil || rb == nil {
			continue
		}
		for _, d := range endToEnd {
			sa, sb := ra.Samples[d.name], rb.Samples[d.name]
			if len(sa) == 0 || len(sb) == 0 {
				return regressed, fmt.Errorf("%s: no %s samples", wl.name, d.name)
			}
			status, worse := verdict(d, sa, sb)
			if status == "regressed" {
				regressed++
			}
			fmt.Fprintf(w, "%-15s %-19s %14.6g %14.6g %8.4f %+8.4f %6.2f  %s (n=%d/%d, spread %.3f/%.3f)\n",
				wl.name, d.name, d.value(sa), d.value(sb), d.value(sb)/d.value(sa), worse, d.bound, status,
				len(sa), len(sb), sa.spread(), sb.spread())
		}
		if ra.Manifest.Seed == rb.Manifest.Seed {
			same := "identical"
			if ra.Digest != rb.Digest || ra.Counts["events"] != rb.Counts["events"] {
				same = "DIFFER (the two sides simulated different work)"
			}
			fmt.Fprintf(w, "%-15s digest %s/%s events %.0f/%.0f: %s; allocs %.0f/%.0f (%+.2f%%)\n", wl.name,
				ra.Digest, rb.Digest, ra.Counts["events"], rb.Counts["events"], same,
				ra.Counts["allocs"], rb.Counts["allocs"], 100*(rb.Counts["allocs"]/ra.Counts["allocs"]-1))
		}
	}
	return regressed, nil
}
