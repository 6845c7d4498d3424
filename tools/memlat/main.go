// Command memlat measures what a dependent load costs on this host at each
// level of the memory hierarchy: one random cyclic permutation per working
// set (32 KB … 128 MB in ×4 steps), chased pointer to pointer so no load can
// start before the previous one returns. The ns/load column is the price of
// a first touch that nothing overlaps — the stalls DESIGN.md §3.10 lists on
// the simulator's hot path — and the input a predicted-vs-measured ns/event
// table needs (ROADMAP item 6).
//
//	go run ./tools/memlat        (or: make memlat)
package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

const (
	lineBytes = 64      // one element per cache line, so every load is a new line
	loads     = 1 << 22 // dependent loads per timed pass
	passes    = 5       // best of, after one untimed lap that faults the pages in
)

type line struct {
	next uint32
	_    [lineBytes - 4]byte
}

var sink uint32 // keeps the chase live

// chase returns the best ns/load over passes for a working set of size bytes.
func chase(size int, rng *rand.Rand) float64 {
	n := size / lineBytes
	set := make([]line, n)
	// Sattolo's shuffle: a uniformly random permutation with a single cycle,
	// so the chase visits every line before it repeats any.
	order := make([]uint32, n)
	for i := range order {
		order[i] = uint32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i)
		order[i], order[j] = order[j], order[i]
	}
	for i := range order {
		set[order[i]].next = order[(i+1)%n]
	}
	at := uint32(0)
	for i := 0; i < n; i++ { // untimed lap
		at = set[at].next
	}
	best := 0.0
	for p := 0; p < passes; p++ {
		start := time.Now()
		for i := 0; i < loads; i++ {
			at = set[at].next
		}
		if ns := float64(time.Since(start).Nanoseconds()) / loads; p == 0 || ns < best {
			best = ns
		}
	}
	sink = at
	return best
}

func cpuModel() string {
	data, _ := os.ReadFile("/proc/cpuinfo") // absent off Linux: the model prints as unknown
	for _, l := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func main() {
	fmt.Printf("# memlat %s %s/%s cpu=%q nproc=%d gomaxprocs=%d loads=%d best-of=%d\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), loads, passes)
	rng := rand.New(rand.NewSource(1))
	var sizes []int
	var ns []float64
	fmt.Printf("%12s %10s\n", "working set", "ns/load")
	for size := 32 << 10; size <= 128<<20; size *= 4 {
		sizes, ns = append(sizes, size), append(ns, chase(size, rng))
		fmt.Printf("%9d KB %10.2f\n", size>>10, ns[len(ns)-1])
	}
	// Four levels assumed: the three largest latency jumps between adjacent
	// sizes are taken as the L1|L2, L2|L3 and L3|DRAM boundaries, and each
	// plateau is reported over the sizes between them (a size that straddles
	// two levels reads between their latencies, hence the range).
	cuts := []int{0, 0, 0} // index i: the boundary lies between sizes[i] and sizes[i+1]
	for c := range cuts {
		best := -1
		for i := 0; i+1 < len(ns); i++ {
			taken := false
			for _, t := range cuts[:c] {
				taken = taken || t == i
			}
			if !taken && (best < 0 || ns[i+1]/ns[i] > ns[best+1]/ns[best]) {
				best = i
			}
		}
		cuts[c] = best
	}
	sort.Ints(cuts)
	fmt.Println("inferred plateaus:")
	from := 0
	for l, name := range []string{"L1", "L2", "L3", "DRAM"} {
		to := len(sizes) - 1
		if l < len(cuts) {
			to = cuts[l]
		}
		fmt.Printf("  %-4s %6.1f–%.1f ns (%d–%d KB)\n", name, ns[from], ns[to], sizes[from]>>10, sizes[to]>>10)
		from = to + 1
	}
}
