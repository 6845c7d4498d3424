package main

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"conga/internal/telemetry"
)

// renderHeatmap draws the path-utilization figure from the decision plane's
// flushed path load matrix: one row per (srcLeaf, uplink), one column per
// destination leaf, cell heat = bytes routed (flowlet counts when the run
// recorded no bytes). Input is the paths.ndjson file of a congasim
// -decisions run.
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
