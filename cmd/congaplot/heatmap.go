package main

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"conga/internal/plot"
	"conga/internal/telemetry"
)

// renderHeatmap draws the path-utilization figure from the decision plane's
// flushed path load matrix: one row per (srcLeaf, uplink), one column per
// destination leaf, cell heat = bytes routed (flowlet counts when the run
// recorded no bytes), each leaf's imbalance and entropy in the subtitle.
// Input is the paths.ndjson file of a congasim -decisions run.
func renderHeatmap(stdout io.Writer, dir, out, title string, width int) error {
	path := filepath.Join(dir, "paths.ndjson")
	f, err := telemetry.ReadSinkFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("no paths file in %s (run congasim with -decisions)", dir)
	}
	if err != nil {
		return err
	}
	if f.Table != telemetry.PathTable {
		return fmt.Errorf("%s is not a paths file", path)
	}
	rowLabels, colLabels, values, unit := telemetry.PathMatrix(f.Paths)
	if len(values) == 0 {
		return fmt.Errorf("no path load cells in %s (run congasim with -decisions)", dir)
	}
	var sums []string
	for _, sm := range f.Summaries {
		sums = append(sums, fmt.Sprintf("l%d imbalance %.2f entropy %.2f", sm.Leaf, sm.Imbalance, sm.Entropy))
	}
	svg := plot.Heatmap(plot.HeatmapSpec{Title: cmp.Or(title, "path utilization (uplink × destination leaf)"),
		Subtitle: strings.Join(sums, " · "), Width: width, Unit: unit,
		RowLabels: rowLabels, ColLabels: colLabels, Values: values})
	if err := os.WriteFile(out, []byte(svg), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "congaplot: wrote %s (%d paths, %d leaves)\n", out, len(f.Paths), len(f.Summaries))
	return nil
}
