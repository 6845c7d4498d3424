// Command abpair runs the repository benchmark as alternating A/B pairs and
// judges each end-to-end metric of BENCHMARK.json the way a change is judged:
// "gain" when the change is better in at least 9 of 10 pairs and its median
// moved past the base's interquartile range, "regressed" when its median is
// worse than the base's by more than the metric's bound, "unresolved"
// otherwise (ROADMAP item 5).
//
//	go run ./tools/abpair -workload incast -pairs 10 -base HEAD~1
//	go run ./tools/abpair -workload scale256 -pairs 10 -overlay probe.json -reps 3
//
// With -base REV the base bench is built from a `git archive` of REV in a
// temporary directory and the change from the working tree. With
// -overlay FILE both come from the working tree, the change built with
// `go build -overlay FILE`, so a probe needs no edit to the tree. Pair i runs
// the base first when i is even and the change first when it is odd; the
// run length is the benchmark's default unless -reps is set. Every run is
// appended to -out as one JSON line, with a manifest of what its side was
// built from and ran on. Run from the repo root.
package main

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"time"
)

// runRecord is one bench run, as appended to the JSONL file.
type runRecord struct {
	Label    string             `json:"label,omitempty"`
	Workload string             `json:"workload"`
	Side     string             `json:"side"` // "base" or "change"
	Pair     int                `json:"pair"`
	Pos      int                `json:"pos"` // 0: ran first in its pair
	Time     string             `json:"time"`
	Correct  bool               `json:"correct"`
	Digest   string             `json:"digest"`
	Events   string             `json:"events"`
	Metrics  map[string]float64 `json:"metrics"`
	Manifest manifest           `json:"manifest"`
}

// manifest says what a run's bench was built from and what it ran on.
type manifest struct {
	Rev        string `json:"rev"`                      // the commit the side was built from
	Dirty      bool   `json:"dirty,omitempty"`          // working tree only: uncommitted changes on top of Rev
	Overlay    string `json:"overlay_sha256,omitempty"` // of the -overlay file
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"` // the model name in /proc/cpuinfo
}

var cpuModel = regexp.MustCompile(`(?m)^model name\s*:\s*(.+)$`)

// manifests returns the base's and the change's manifests.
func manifests(base, overlay string) (ms [2]manifest, err error) {
	git := func(args ...string) string {
		out, gitErr := exec.Command("git", args...).Output()
		if gitErr != nil && err == nil {
			err = fmt.Errorf("git %v: %w", args, gitErr)
		}
		return strings.TrimSpace(string(out))
	}
	ms[1] = manifest{Rev: git("rev-parse", "HEAD"), Dirty: git("status", "--porcelain") != "",
		Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	info, _ := os.ReadFile("/proc/cpuinfo") // none off Linux: no model
	if m := cpuModel.FindSubmatch(info); m != nil {
		ms[1].CPU = string(m[1])
	}
	ms[0] = ms[1]
	if base != "" {
		ms[0].Rev, ms[0].Dirty = git("rev-parse", "--verify", base+"^{commit}"), false
		return ms, err
	}
	raw, readErr := os.ReadFile(overlay)
	ms[1].Overlay = fmt.Sprintf("%x", sha256.Sum256(raw))
	return ms, cmp.Or(err, readErr)
}

func main() {
	var (
		workload = flag.String("workload", "", "benchmark workload to run (required)")
		pairs    = flag.Int("pairs", 10, "alternating base/change pairs")
		base     = flag.String("base", "", "git revision the base bench is built from")
		overlay  = flag.String("overlay", "", "go build -overlay file the change bench is built with (base: the working tree)")
		reps     = flag.Int("reps", 0, "bench -reps (0: the benchmark's default run length)")
		out      = flag.String("out", "measurements/abpair.jsonl", "JSONL file every run is appended to")
		label    = flag.String("label", "", "label stored with every run")
	)
	flag.Parse()
	if err := run(*workload, *pairs, *base, *overlay, *reps, *out, *label); err != nil {
		fmt.Fprintln(os.Stderr, "abpair:", err)
		os.Exit(1)
	}
}

func run(workload string, pairs int, base, overlay string, reps int, out, label string) error {
	if workload == "" || pairs < 1 || (base == "") == (overlay == "") {
		return fmt.Errorf("need -workload, -pairs ≥ 1 and exactly one of -base and -overlay")
	}
	var spec struct {
		EndToEnd []struct {
			Name, Better string
			Bound        float64
		} `json:"end_to_end"`
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(raw, &spec)
	}
	if err != nil {
		return fmt.Errorf("reading BENCHMARK.json (run from the repository root): %w", err)
	}
	mans, err := manifests(base, overlay)
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "abpair-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	bins := [2]string{filepath.Join(tmp, "bench-base"), filepath.Join(tmp, "bench-change")}
	baseTree, change := filepath.Join(tmp, "base-tree"), []string{"build", "-o", bins[1]}
	if base != "" {
		err = sh("", "sh", "-c", `mkdir "$1" && git archive "$0" | tar -x -C "$1"`, base, baseTree)
	} else {
		baseTree, change = "", append(change, "-overlay", overlay)
	}
	if err == nil {
		err = sh(baseTree, "go", "build", "-o", bins[0], "./bench")
	}
	if err == nil {
		err = sh("", "go", append(change, "./bench")...)
	}
	if err != nil {
		return err
	}

	args := []string{"-workload", workload, "-dir", filepath.Join(tmp, "out")}
	if reps > 0 {
		args = append(args, "-reps", fmt.Sprint(reps))
	}
	f, err := os.OpenFile(out, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	samples, digests := map[string]*[2][]float64{}, map[string]bool{}
	for _, m := range spec.EndToEnd {
		samples[m.Name] = &[2][]float64{}
	}
	for i := 0; i < pairs; i++ {
		for pos := 0; pos < 2; pos++ {
			side := pos ^ i%2 // 0 base, 1 change
			rec, err := benchRun(bins[side], args)
			if err != nil {
				return err
			}
			rec.Label, rec.Workload, rec.Side, rec.Pair, rec.Pos = label, workload, [2]string{"base", "change"}[side], i, pos
			rec.Manifest = mans[side]
			line, _ := json.Marshal(rec)
			if _, err := f.Write(append(line, '\n')); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "pair %d %-6s wall_s %.3f digest %s events %s\n", i, rec.Side, rec.Metrics["wall_s"], rec.Digest, rec.Events)
			digests["digest "+rec.Digest+" events "+rec.Events] = true
			for name, s := range samples {
				s[side] = append(s[side], rec.Metrics[name])
			}
		}
	}
	fmt.Printf("%s, %d pairs; base: %s, change: %s\n", workload, pairs, cmp.Or(base, "the working tree"), cmp.Or(overlay, "the working tree"))
	fmt.Printf("%-20s %-30s %-30s %7s %6s  %s\n", "metric", "base median [q1, q3]", "change median [q1, q3]", "ratio", "wins", "verdict")
	for _, m := range spec.EndToEnd {
		s := samples[m.Name]
		b, c := quartiles(s[0]), quartiles(s[1])
		fmt.Printf("%-20s %-30s %-30s %7.3f %2d/%-3d  %s\n", m.Name,
			fmt.Sprintf("%.4g [%.4g, %.4g]", b[1], b[0], b[2]), fmt.Sprintf("%.4g [%.4g, %.4g]", c[1], c[0], c[2]),
			c[1]/b[1], wins(s[0], s[1], m.Better), len(s[0]), verdict(s[0], s[1], m.Better, m.Bound))
	}
	if len(digests) > 1 {
		fmt.Println("model changed: the runs differ in", digests)
	}
	return nil
}

// sh runs a command with its output on stderr.
func sh(dir, name string, args ...string) error {
	cmd := exec.Command(name, args...)
	cmd.Dir, cmd.Stdout, cmd.Stderr = dir, os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s %v: %w", name, args, err)
	}
	return nil
}

var digestLine = regexp.MustCompile(`digest (\S+) events (\S+)`)

// benchRun runs one bench binary and reads its result line (the last line of
// standard output) and its digest line.
func benchRun(bin string, args []string) (runRecord, error) {
	var stdout bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return runRecord{}, fmt.Errorf("%s: %w", bin, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var res struct {
		Correct bool                               `json:"correct"`
		Metrics map[string]struct{ Value float64 } `json:"metrics"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return runRecord{}, fmt.Errorf("%s: result line: %w", bin, err)
	}
	rec := runRecord{Time: time.Now().UTC().Format(time.RFC3339), Correct: res.Correct, Metrics: map[string]float64{}}
	for k, v := range res.Metrics {
		rec.Metrics[k] = v.Value
	}
	if m := digestLine.FindSubmatch(stdout.Bytes()); m != nil {
		rec.Digest, rec.Events = string(m[1]), string(m[2])
	}
	return rec, nil
}

// quartiles returns the first quartile, median and third quartile of xs,
// interpolating between order statistics.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		h := p * float64(len(s)-1)
		i := int(h)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (h-float64(i))*(s[i+1]-s[i])
	}
	return [3]float64{q(0.25), q(0.5), q(0.75)}
}

// wins counts the pairs in which the change is strictly better than the base.
func wins(base, change []float64, better string) int {
	n := 0
	for i := range base {
		if (better == "lower" && change[i] < base[i]) || (better == "higher" && change[i] > base[i]) {
			n++
		}
	}
	return n
}

// verdict applies the rule a claimed change is held to. base[i] and
// change[i] are pair i's two runs; better is "lower" or "higher"; bound is
// the largest relative worsening of the median the benchmark tolerates.
func verdict(base, change []float64, better string, bound float64) string {
	b, c := quartiles(base), quartiles(change)
	shift := c[1] - b[1]
	if better == "lower" {
		shift = -shift // positive: the change is better
	}
	switch {
	case wins(base, change, better)*10 >= 9*len(base) && shift > b[2]-b[0]:
		return "gain"
	case -shift > bound*b[1]:
		return "regressed"
	}
	return "unresolved"
}
