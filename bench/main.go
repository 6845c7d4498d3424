// Command bench is the repository's benchmark: six simulator workloads (the
// four single-threaded ones declared in BENCHMARK.json and gated by the
// driver), five end-to-end host metrics, a ladder of per-layer rungs and a
// traced run. See README.md in this directory and BENCHMARK.json at the root.
//
//	go run ./bench                         one timed set: all six workloads, each in its own child process
//	go run ./bench -trace 1                the traced run: per-layer metrics and span files
//	go run ./bench -workload incast        one workload in this process; the last line is the result object
//	go run ./bench -compare a.json b.json  two sets against the end-to-end bounds
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// baselineJSON is the recorded set the simulated statistics are checked
// against ("model changed" when they differ at the recorded seed).
//
//go:embed baseline.json
var baselineJSON []byte

// setFile is what a set of runs writes: one report per workload.
type setFile struct {
	Manifest manifest  `json:"manifest"`
	Reports  []*report `json:"reports"`
}

func main() {
	var (
		workload = flag.String("workload", "", "run only this workload, in this process (default: all, each in a child process)")
		seed     = flag.Uint64("seed", 1, "input seed: forwarded as FCTConfig.Seed/IncastConfig.Seed and used to order the stratified flow sizes")
		seconds  = flag.Int("seconds", 22, "how long the timed passes of a workload run (at least 3 passes)")
		reps     = flag.Int("reps", 0, "fixed number of timed passes per workload; overrides -seconds when > 0 (7 for a recorded baseline)")
		trace    = flag.Int("trace", 0, "1: the traced run (per-layer metrics, CPU profile fold, spans) instead of the timed end-to-end run")
		dir      = flag.String("dir", "bench/out", "directory for scratch and output files")
		out      = flag.String("out", "", "write the full report (manifest, samples, counts) to this JSON file")
		compare  = flag.Bool("compare", false, "compare two output files given as arguments: ok / regressed / unresolved per workload and end-to-end metric")
	)
	flag.Parse()
	o := runOpts{seed: *seed, seconds: *seconds, reps: *reps, traced: *trace != 0, dir: *dir}
	if err := run(o, *workload, *out, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(o runOpts, workload, out string, compare bool, args []string) error {
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare needs two files")
		}
		regressed, err := compareFiles(os.Stdout, args[0], args[1])
		if err == nil && regressed > 0 {
			err = fmt.Errorf("%d regressed", regressed)
		}
		return err
	}
	if len(args) > 0 {
		return fmt.Errorf("unexpected arguments %q", args)
	}
	if o.seconds < 1 {
		return fmt.Errorf("-seconds %d must be at least 1", o.seconds)
	}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return err
	}
	if workload == "" {
		return runSet(o, out)
	}
	w := findWorkload(workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q", workload)
	}
	rep, err := runWorkload(w, o)
	if err != nil {
		return err
	}
	printReport(os.Stdout, rep)
	if out != "" {
		if err := writeJSON(out, rep); err != nil {
			return err
		}
	}
	// The contract's result object, last line of standard output.
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, rep.Metrics})
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	if !rep.Correct {
		return fmt.Errorf("%s: a correctness check failed: %s", w.name, strings.Join(rep.Problems, "; "))
	}
	return nil
}

// runSet runs every workload one after another, each in its own re-exec'd
// child process so RSS, heap and GC state are not inherited, never two at
// once, and merges the children's reports into one set file.
func runSet(o runOpts, out string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	set := setFile{Manifest: newManifest(o.seed, o.seconds, o.reps)}
	var failed []string
	for _, w := range workloads {
		tmp := filepath.Join(o.dir, fmt.Sprintf("report-%s-%d.json", w.name, os.Getpid()))
		traceFlag := "0"
		if o.traced {
			traceFlag = "1"
		}
		cmd := exec.Command(exe, "-workload", w.name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
			"-reps", fmt.Sprint(o.reps), "-trace", traceFlag, "-dir", o.dir, "-out", tmp)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		runErr := cmd.Run() // waits for the child to end
		var rep report
		data, err := os.ReadFile(tmp)
		os.Remove(tmp)
		if err == nil {
			err = json.Unmarshal(data, &rep)
		}
		if err != nil {
			if runErr != nil {
				err = runErr
			}
			return fmt.Errorf("workload %s: %w", w.name, err)
		}
		if runErr != nil {
			failed = append(failed, w.name)
		}
		set.Reports = append(set.Reports, &rep)
	}
	if out == "" {
		out = filepath.Join(o.dir, fmt.Sprintf("set-%s.json", time.Now().UTC().Format("20060102T150405Z")))
	}
	if err := writeJSON(out, set); err != nil {
		return err
	}
	if !o.traced {
		printCross(os.Stdout, &set)
	}
	fmt.Printf("# set written to %s\n", out)
	if len(failed) > 0 {
		return fmt.Errorf("failed checks in %s", strings.Join(failed, ", "))
	}
	return nil
}

// printCross prints the cross-workload ratios a timed set supports, from
// the wall_s each workload reported.
func printCross(w io.Writer, set *setFile) {
	wall := map[string]float64{}
	events := map[string]float64{}
	for _, r := range set.Reports {
		wall[r.Workload] = r.Metrics["wall_s"].Value
		events[r.Workload] = r.Counts["events"]
	}
	fmt.Fprintf(w, "# cross-workload, from the wall_s of this set (as measured on %d cores, no gate on the value):\n", set.Manifest.NumCPU)
	fmt.Fprintf(w, "%-28s %12.4f ratio   scale256 %.4f s / scale256_p2 %.4f s\n", "conga.parallel_speedup",
		wall["scale256"]/wall["scale256_p2"], wall["scale256"], wall["scale256_p2"])
	fmt.Fprintf(w, "%-28s %12.4f ratio   ns/event scale256 %.1f / fig09_testbed %.1f\n", "conga.scale_cost_ratio",
		(wall["scale256"]/events["scale256"])/(wall["fig09_testbed"]/events["fig09_testbed"]),
		wall["scale256"]*1e9/events["scale256"], wall["fig09_testbed"]*1e9/events["fig09_testbed"])
	fmt.Fprintf(w, "%-28s %12.4f ratio   fig09_observed %.4f s / fig09_testbed %.4f s - 1\n", "telemetry.overhead_frac",
		wall["fig09_observed"]/wall["fig09_testbed"]-1, wall["fig09_observed"], wall["fig09_testbed"])
	fmt.Fprintf(w, "%-28s %12.4f ratio   events fig09_observed %.0f / fig09_testbed %.0f\n", "telemetry.events_ratio",
		events["fig09_observed"]/events["fig09_testbed"], events["fig09_observed"], events["fig09_testbed"])
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printReport prints every metric by name with its unit, the run's
// parameters beside them, and the model-changed notes.
func printReport(w io.Writer, r *report) {
	m := r.Manifest
	fmt.Fprintf(w, "# bench workload=%s traced=%v seed=%d passes=%d rev=%s %s %s/%s cpu=%q nproc=%d gomaxprocs=%d\n",
		r.Workload, r.Traced, m.Seed, r.Passes, m.Revision, m.GoVersion, m.GOOS, m.GOARCH, m.CPU, m.NumCPU, m.GOMAXPROCS)
	fmt.Fprintf(w, "# config: %s\n# set-up (%d builds, one batch before the warm-up and one after each pass): %s\n# %s\n", r.Config, r.SetupBuilds, r.SetupSteps, m.Loop)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := r.Metrics[n]
		fmt.Fprintf(w, "%-34s %16.6f %-6s", n, v.Value, v.Unit)
		if s := r.Samples[n]; len(s) > 1 {
			count, stat, tail := len(s), "best", "n too small for a tail percentile"
			if n == "setup_s" {
				stat = "median of the batch medians"
				if r.SetupTail != "" {
					tail = "single builds: " + r.SetupTail
				}
			}
			fmt.Fprintf(w, "  %s, n=%d: median %.6f min %.6f max %.6f (%s)", stat, count, s.median(), s.min(), s.max(), tail)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "operations attempted %d failed %d; digest %s events %.0f segments %.0f allocs %.0f\n",
		r.Attempted, r.Failed, r.Digest, r.Counts["events"], r.Counts["segments"], r.Counts["allocs"])
	for _, note := range modelChanges(r) {
		fmt.Fprintln(w, "model changed:", note)
	}
	for _, n := range r.Notes {
		fmt.Fprintln(w, "#", n)
	}
	for _, p := range r.Problems {
		fmt.Fprintln(w, "CHECK FAILED:", p)
	}
	if r.SpanFile != "" {
		fmt.Fprintln(w, "# spans written to", r.SpanFile)
	}
}

// modelChanges lists the simulated statistics that differ from the recorded
// baseline at the same seed and size. They are reported, not scored: a
// change to the model is not a performance regression, but every host-time
// comparison across it compares different work.
func modelChanges(r *report) []string {
	if sizeScale != 1 {
		return nil
	}
	var base setFile
	if err := json.Unmarshal(baselineJSON, &base); err != nil {
		return []string{"baseline.json unreadable: " + err.Error()}
	}
	var notes []string
	for _, b := range base.Reports {
		if b.Workload != r.Workload || b.Manifest.Seed != r.Manifest.Seed {
			continue
		}
		if b.Digest != r.Digest {
			notes = append(notes, fmt.Sprintf("digest %s, recorded %s", r.Digest, b.Digest))
		}
		for _, k := range []string{"events", "segments", "drops", "retx", "timeouts", "sim_stat"} {
			if b.Counts[k] != r.Counts[k] {
				notes = append(notes, fmt.Sprintf("%s %v, recorded %v", k, r.Counts[k], b.Counts[k]))
			}
		}
	}
	return notes
}
