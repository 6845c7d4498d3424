package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"conga/internal/plot"
	"conga/internal/telemetry"
)

// renderHeatmap draws the path-utilization figure from the decision plane's
// flushed path load matrix: one row per (srcLeaf, uplink), one column per
// destination leaf, cell heat = bytes routed (flowlet counts when the run
// recorded no bytes). Input is the paths file of a congasim -decisions run.
func renderHeatmap(stdout io.Writer, dir, out, title string, width int) error {
	rows, sums, err := loadPaths(dir)
	if err != nil {
		return err
	}
	rowLabels, colLabels, values, unit := telemetry.PathMatrix(rows)
	if len(values) == 0 {
		return fmt.Errorf("no path load cells in %s (run congasim with -decisions)", dir)
	}
	if title == "" {
		title = "path utilization (uplink × destination leaf)"
	}
	var parts []string
	for _, sm := range sums {
		parts = append(parts, fmt.Sprintf("l%d imbalance %.2f entropy %.2f", sm.Leaf, sm.Imbalance, sm.Entropy))
	}
	svg := plot.Heatmap(plot.HeatmapSpec{
		Title:     title,
		Subtitle:  strings.Join(parts, " · "),
		Width:     width,
		Unit:      unit,
		RowLabels: rowLabels,
		ColLabels: colLabels,
		Values:    values,
	})
	if err := os.WriteFile(out, []byte(svg), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "congaplot: wrote %s (%d paths, %d leaves)\n", out, len(rows), len(sums))
	return nil
}

// loadPaths reads the path load matrix sink file of dir, whichever encoding
// it was flushed in, back into rows and per-leaf summaries.
func loadPaths(dir string) ([]telemetry.PathRow, []telemetry.PathSummary, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "paths.*"))
	if err != nil {
		return nil, nil, err
	}
	if len(paths) == 0 {
		return nil, nil, fmt.Errorf("no paths file in %s (run congasim with -decisions)", dir)
	}
	f, err := telemetry.ReadSinkFile(paths[0])
	if err != nil {
		return nil, nil, err
	}
	if f.Table != telemetry.PathTable {
		return nil, nil, fmt.Errorf("%s is not a paths file", paths[0])
	}
	return f.Paths, f.Summaries, nil
}
