// Command congaplot renders the paper-style figures (queue depth over
// time, DRE register trajectories, congestion-table maxima — the shapes of
// Figures 4 and 12) as standalone SVG files, from either a flushed
// telemetry directory or a live -serve endpoint. The SVG renderer itself
// lives in internal/plot, shared with the live dashboard.
//
// Usage:
//
//	congasim -telemetry out/tel -queues
//	congaplot -dir out/tel -series 'queue\.' -out queue.svg
//	congaplot -url http://localhost:8080 -run fct -series 'dre\.' -out dre.svg
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
// Files are read through telemetry.ReadSinkFile, which takes CSV and NDJSON
// alike and hands back the same probe names, units and values from either; a
// directory flushed in both encodings yields each series once.
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
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
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
		dir     = fs.String("dir", "", "telemetry directory flushed by a -telemetry run (its series_* files, CSV or NDJSON); with -cdf, a directory of cdf_* files")
		liveURL = fs.String("url", "", "base URL of a live -serve endpoint (e.g. http://localhost:8080) instead of -dir")
		runName = fs.String("run", "", "run name on the live endpoint (default: first attached run)")
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

	if (*dir == "") == (*liveURL == "") {
		return fmt.Errorf("exactly one of -dir or -url is required")
	}
	if *cdf && *liveURL != "" {
		return fmt.Errorf("-cdf reads distribution files; use it with -dir")
	}
	if *heatmap {
		if *liveURL != "" {
			return fmt.Errorf("-heatmap reads path matrix files; use it with -dir")
		}
		if *cdf {
			return fmt.Errorf("-heatmap and -cdf are separate figures; pick one")
		}
		return renderHeatmap(stdout, *dir, *out, *title, *width)
	}
	re, err := regexp.Compile(*sel)
	if err != nil {
		return err
	}

	var all []plot.Series
	switch {
	case *cdf:
		all, err = loadDir(*dir, "cdf_", telemetry.CDFTable)
	case *dir != "":
		all, err = loadDir(*dir, "series_", telemetry.SeriesTable)
	default:
		all, err = loadURL(*liveURL, *runName)
	}
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

// loadDir reads the sink files of dir named prefix*, which must all hold the
// wanted table (series or cdf), as plot series. A directory flushed in both
// encodings holds every probe twice, as <stem>.csv and <stem>.ndjson, which
// read back the same: one file per stem is read. A series with no points has
// nothing to list or plot and is left out (its NDJSON file is empty, so only
// its CSV file could name it).
func loadDir(dir, prefix string, table *telemetry.Table) ([]plot.Series, error) {
	paths, err := filepath.Glob(filepath.Join(dir, prefix+"*"))
	if err != nil {
		return nil, err
	}
	var out []plot.Series
	seen := map[string]bool{}
	for _, p := range paths {
		stem := strings.TrimSuffix(p, filepath.Ext(p))
		if seen[stem] {
			continue
		}
		seen[stem] = true
		f, err := telemetry.ReadSinkFile(p)
		if err != nil {
			return nil, err
		}
		if f.Table != table && f.Table != nil {
			return nil, fmt.Errorf("%s holds the %s table, not %s", p, f.Table.Name, table.Name)
		}
		s := plot.Series{Name: f.Probe, Unit: f.Unit, Points: f.CDF}
		if s.Name == "" { // a file older than the "# probe=" line
			s.Name = strings.TrimPrefix(filepath.Base(stem), prefix)
		}
		for _, pt := range f.Points {
			s.Points = append(s.Points, [2]float64{float64(pt.T), pt.V})
		}
		if len(s.Points) > 0 {
			out = append(out, s)
		}
	}
	return out, nil
}

// loadURL reads series from a live -serve endpoint: /series for the name
// index, then /series/<name> for each.
func loadURL(base, run string) ([]plot.Series, error) {
	base = strings.TrimRight(base, "/")
	q := ""
	if run != "" {
		q = "?run=" + url.QueryEscape(run)
	}
	var index struct {
		Series []string `json:"series"`
	}
	if err := getJSON(base+"/series"+q, &index); err != nil {
		return nil, err
	}
	var out []plot.Series
	for _, name := range index.Series {
		var sj struct {
			Probe  string   `json:"probe"`
			Unit   string   `json:"unit"`
			Points [][2]any `json:"points"`
		}
		if err := getJSON(base+"/series/"+url.PathEscape(name)+q, &sj); err != nil {
			return nil, err
		}
		s := plot.Series{Name: sj.Probe, Unit: sj.Unit}
		for _, p := range sj.Points {
			t, okT := asFloat(p[0])
			v, okV := asFloat(p[1])
			if okT && okV {
				s.Points = append(s.Points, [2]float64{t, v})
			}
		}
		out = append(out, s)
	}
	return out, nil
}

func asFloat(v any) (float64, bool) {
	f, ok := v.(float64)
	return f, ok
}

func getJSON(u string, v any) error {
	resp, err := http.Get(u)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("GET %s: %s: %s", u, resp.Status, strings.TrimSpace(string(body)))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
