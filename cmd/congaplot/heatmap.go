package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"conga/internal/telemetry"
)

// renderHeatmap draws the path-utilization figure from the decision plane's
// flushed path load matrix: one row per (srcLeaf, uplink), one column per
// destination leaf, cell heat = bytes routed (flowlet counts when the run
// recorded no bytes). Input is the paths file of a congasim -decisions run,
// in whichever encoding it was flushed.
func renderHeatmap(stdout io.Writer, dir, out, title string, width int) error {
	paths, err := filepath.Glob(filepath.Join(dir, "paths.*"))
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		return fmt.Errorf("no paths file in %s (run congasim with -decisions)", dir)
	}
	f, err := telemetry.ReadSinkFile(paths[0])
	if err != nil {
		return err
	}
	if f.Table != telemetry.PathTable {
		return fmt.Errorf("%s is not a paths file", paths[0])
	}
	svg := f.PathHeatmap(title, width)
	if svg == "" {
		return fmt.Errorf("no path load cells in %s (run congasim with -decisions)", dir)
	}
	if err := os.WriteFile(out, []byte(svg), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "congaplot: wrote %s (%d paths, %d leaves)\n", out, len(f.Paths), len(f.Summaries))
	return nil
}
