// Command congaplot renders the paper-style figures (queue depth over
// time, DRE register trajectories, congestion-table maxima — the shapes of
// Figures 4 and 12) as standalone SVG files, from a flushed telemetry
// directory. The SVG renderer itself lives in internal/plot.
//
// Usage:
//
//	congasim -telemetry out/tel -queues
//	congaplot -dir out/tel -series 'queue\.' -out queue.svg
//	congaplot -dir out/tel -list
//
//	congasim -scheme conga -cdfout out/cdf
//	congaplot -cdf -dir out/cdf -series imbalance -out imbalance.svg
//
//	congasim -telemetry out/tel -decisions
//	congaplot -heatmap -dir out/tel -out heatmap.svg
//
// With -heatmap the input is the decision plane's path load matrix (the
// paths file of a congasim -decisions run) and the figure is a
// (srcLeaf, uplink) × dstLeaf heatmap of bytes routed per path, with each
// leaf's imbalance and entropy figures in the subtitle.
//
// Every input file is read through telemetry.ReadSinkFile.
//
// The chart is a single-axis line chart: all selected series must share a
// unit (mixing units would need a second y-axis, which congaplot refuses
// by design — run it twice and get two figures instead). With -cdf the
// inputs are cdf_* distribution files (value,fraction rows from
// congasim -cdfout) and the y axis is the fixed [0,1] cumulative fraction
// — the form of the paper's Figure 12 (throughput imbalance) and 11b
// (hotspot queue depth).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"

	"conga/internal/plot"
	"conga/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "congaplot:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("congaplot", flag.ContinueOnError)
	var (
		dir     = fs.String("dir", "", "telemetry directory flushed by a -telemetry run (its series_*.ndjson files); with -cdf, a directory of cdf_*.ndjson files")
		sel     = fs.String("series", ".", "regexp selecting which series to plot, matched against probe names")
		out     = fs.String("out", "congaplot.svg", "output SVG path")
		title   = fs.String("title", "", "chart title (default: derived from the selected series)")
		width   = fs.Int("width", 860, "SVG width in px")
		height  = fs.Int("height", 440, "SVG height in px")
		list    = fs.Bool("list", false, "list available series names and exit")
		cdf     = fs.Bool("cdf", false, "CDF input mode: read cdf_* distribution files (value,fraction) and plot cumulative fraction on a [0,1] axis")
		heatmap = fs.Bool("heatmap", false, "heatmap input mode: read the decision plane's paths file (congasim -decisions) and render the path-utilization matrix")
		tMin    = fs.Duration("tmin", 0, "clip points before this sim time (time-series mode only)")
		tMax    = fs.Duration("tmax", 0, "clip points after this sim time (0 = no clip; time-series mode only)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *dir == "" {
		return fmt.Errorf("-dir is required")
	}
	if *heatmap {
		if *cdf {
			return fmt.Errorf("-heatmap and -cdf are separate figures; pick one")
		}
		return renderHeatmap(stdout, *dir, *out, *title, *width)
	}
	re, err := regexp.Compile(*sel)
	if err != nil {
		return err
	}

	prefix, table := "series_", telemetry.SeriesTable
	if *cdf {
		prefix, table = "cdf_", telemetry.CDFTable
	}
	all, err := loadDir(*dir, prefix, table)
	if err != nil {
		return err
	}
	if len(all) == 0 {
		if *cdf {
			return fmt.Errorf("no cdf_* files found (generate them with congasim -cdfout)")
		}
		return fmt.Errorf("no series found (is this a telemetry directory with series enabled?)")
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Name < all[j].Name })

	if *list {
		for _, s := range all {
			fmt.Fprintf(stdout, "%-40s %8d points  unit=%s\n", s.Name, len(s.Points), s.Unit)
		}
		return nil
	}

	var picked []plot.Series
	for _, s := range all {
		if !*cdf {
			s.Points = clipWindow(s.Points, float64(tMin.Nanoseconds()), float64(tMax.Nanoseconds()))
		}
		if re.MatchString(s.Name) && len(s.Points) > 0 {
			picked = append(picked, s)
		}
	}
	if len(picked) == 0 {
		return fmt.Errorf("no series match %q (use -list to see names)", *sel)
	}

	// One axis: refuse mixed units rather than inventing a second scale.
	units := map[string]bool{}
	for _, s := range picked {
		units[s.Unit] = true
	}
	if len(units) > 1 {
		names := make([]string, 0, len(units))
		for u := range units {
			names = append(names, u)
		}
		sort.Strings(names)
		return fmt.Errorf("selected series mix units (%s); narrow -series and render one figure per unit",
			strings.Join(names, ", "))
	}

	// The palette has 8 fixed slots; beyond that the chart would be
	// unreadable anyway. Keep the first 8 in name order and say so on the
	// figure — never drop series silently.
	dropped := 0
	if len(picked) > plot.MaxSeries {
		dropped = len(picked) - plot.MaxSeries
		picked = picked[:plot.MaxSeries]
	}

	t := *title
	if t == "" {
		t = defaultTitle(picked)
		if *cdf {
			t += " CDF"
		}
	}
	spec := plot.Spec{Title: t, Width: *width, Height: *height, Dropped: dropped}
	var svg string
	if *cdf {
		svg = plot.CDF(picked, spec)
	} else {
		svg = plot.Line(picked, spec)
	}
	if err := os.WriteFile(*out, []byte(svg), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "congaplot: wrote %s (%d series", *out, len(picked))
	if dropped > 0 {
		fmt.Fprintf(stdout, ", %d dropped — narrow -series", dropped)
	}
	fmt.Fprintln(stdout, ")")
	return nil
}

// clipWindow keeps points with tMin <= t <= tMax (tMax 0 = unbounded).
func clipWindow(pts [][2]float64, tMin, tMax float64) [][2]float64 {
	if tMin <= 0 && tMax <= 0 {
		return pts
	}
	out := pts[:0]
	for _, p := range pts {
		if p[0] >= tMin && (tMax <= 0 || p[0] <= tMax) {
			out = append(out, p)
		}
	}
	return out
}

// defaultTitle derives a figure title from the common prefix of the
// selected probe names ("queue.l0->s0.0, ..." → "queue").
func defaultTitle(picked []plot.Series) string {
	prefix := picked[0].Name
	for _, s := range picked[1:] {
		for !strings.HasPrefix(s.Name, prefix) && prefix != "" {
			prefix = prefix[:len(prefix)-1]
		}
	}
	prefix = strings.Trim(prefix, ".-> ")
	if prefix == "" {
		return "telemetry series"
	}
	return prefix
}

// loadDir reads the sink files of dir named prefix*.ndjson, which must all
// hold the wanted table (series or cdf), as plot series. Files without
// points are left out: they have nothing to list or plot (and an empty
// series' file is empty, so it names no probe).
func loadDir(dir, prefix string, table *telemetry.Table) ([]plot.Series, error) {
	paths, err := filepath.Glob(filepath.Join(dir, prefix+"*.ndjson"))
	if err != nil {
		return nil, err
	}
	var out []plot.Series
	for _, p := range paths {
		f, err := telemetry.ReadSinkFile(p)
		if err != nil {
			return nil, err
		}
		if f.Table != table && f.Table != nil {
			return nil, fmt.Errorf("%s holds the %s table, not %s", p, f.Table.Name, table.Name)
		}
		// A series file holds (time_ns, value) points, a cdf file
		// (value, fraction) ones.
		s := plot.Series{Name: f.Probe, Unit: f.Unit, Points: f.CDF}
		for _, pt := range f.Points {
			s.Points = append(s.Points, [2]float64{float64(pt.T), pt.V})
		}
		if len(s.Points) > 0 {
			out = append(out, s)
		}
	}
	return out, nil
}
