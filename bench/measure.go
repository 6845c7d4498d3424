package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// sizeScale shrinks every workload and rung for the tier-1 test; the
// benchmark itself always runs at 1.
var sizeScale = 1.0

// scaled returns n·sizeScale, at least min.
func scaled(n, min int) int {
	v := int(float64(n) * sizeScale)
	if v < min {
		v = min
	}
	return v
}

// manifest is the provenance printed beside every number and stored in
// every output file.
type manifest struct {
	Revision   string `json:"git_revision"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Reps       int    `json:"reps"` // 0: as many passes as fit in seconds, at least minPasses
	Loop       string `json:"loop"`
	Time       string `json:"time"`
}

func newManifest(seed uint64, seconds, reps int) manifest {
	return manifest{
		Revision:   gitRevision(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       seed,
		Seconds:    seconds,
		Reps:       reps,
		Loop:       "closed loop, 1 client, passes back to back; generator lateness n/a",
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
}

// gitRevision names the checkout's commit, or "unknown" outside a git
// work tree (the driver's checkouts are plain directories).
func gitRevision() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	rev := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(st) > 0 {
		rev += "-dirty"
	}
	return rev
}

// procField returns the value of the first "key: value" line of a /proc
// text file, "" if the file or the key is missing.
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

func cpuModel() string {
	if m := procField("/proc/cpuinfo", "model name"); m != "" {
		return m
	}
	return "unknown"
}

// cpuSeconds returns the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// vmHWM reads the process's resident-set high-water mark in MB.
func vmHWM() (float64, error) {
	v := procField("/proc/self/status", "VmHWM")
	kb, err := strconv.ParseFloat(strings.TrimSuffix(v, " kB"), 64)
	if err != nil {
		return 0, fmt.Errorf("VmHWM %q in /proc/self/status: %w", v, err)
	}
	return kb / 1024, nil
}

// sample is a set of repeated measurements of one quantity.
type sample []float64

func (s sample) sorted() []float64 {
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	return c
}

func (s sample) median() float64 {
	c := s.sorted()
	n := len(c)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

func (s sample) min() float64 { return s.sorted()[0] }
func (s sample) max() float64 { return s.sorted()[len(s)-1] }

// tail returns the highest percentile of 90, 95, 99, 99.9 that still has ten
// samples beyond it, and its value; ok is false when even p90 has not (the
// handful of passes a run affords supports no tail percentile).
func (s sample) tail() (pct, v float64, ok bool) {
	c := s.sorted()
	for _, p := range []float64{99.9, 99, 95, 90} {
		if beyond := float64(len(c)) * (100 - p) / 100; beyond >= 10 {
			return p, c[len(c)-1-int(beyond)], true
		}
	}
	return 0, 0, false
}

// edges brackets the sample: its extremes for the handful of passes or
// set-up batches a run affords (no percentile is supported there, so the
// whole range is the honest width), its quartiles from ten values up.
func (s sample) edges() (lo, hi float64) {
	c := s.sorted()
	if n := len(c); n >= 10 {
		return c[n/4], c[(3*n)/4]
	}
	return c[0], c[len(c)-1]
}

// spread is the distance between the edges as a share of the median.
func (s sample) spread() float64 {
	lo, hi := s.edges()
	if m := s.median(); m != 0 {
		return (hi - lo) / m
	}
	return 0
}

// timed runs fn between a monotonic clock read and a getrusage read and
// returns the wall and CPU seconds it took.
func timed(fn func() error) (wall, cpu float64, err error) {
	c0 := cpuSeconds()
	t0 := time.Now()
	err = fn()
	wall = time.Since(t0).Seconds()
	cpu = cpuSeconds() - c0
	return wall, cpu, err
}

// memDelta is the allocation and GC activity between two MemStats reads.
type memDelta struct {
	allocs    uint64
	allocMB   float64
	gcCycles  uint32
	gcPauseMs float64
}

func memBetween(a, b *runtime.MemStats) memDelta {
	return memDelta{
		allocs:    b.Mallocs - a.Mallocs,
		allocMB:   float64(b.TotalAlloc-a.TotalAlloc) / (1 << 20),
		gcCycles:  b.NumGC - a.NumGC,
		gcPauseMs: float64(b.PauseTotalNs-a.PauseTotalNs) / 1e6,
	}
}
