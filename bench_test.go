package conga

// Profiling entry points, ungated: the bare event engine and the idle
// fabric's housekeeping. Timed runs of whole cells are `go run ./bench`'s
// job; events and allocations of the figure and scale cells are pinned by
// the golden table (determinism_test.go).

import (
	"testing"

	"conga/internal/sim"
)

// BenchmarkEngineRaw is a pure schedule/run loop on the bare event engine —
// no fabric, no transport — so engine-level regressions (heap cost, event
// allocation) are visible in isolation from the packet model.
func BenchmarkEngineRaw(b *testing.B) {
	b.ReportAllocs()
	eng := sim.New()
	fn := func(sim.Time) {}
	for i := 0; i < b.N; i++ {
		base := eng.Now()
		// 64 events over 8 distinct timestamps: exercises both heap ordering
		// and the same-time insertion-order tie-break.
		for j := 0; j < 64; j++ {
			eng.At(base+sim.Time(j%8), fn)
		}
		eng.Run(sim.MaxTime)
	}
	b.ReportMetric(64, "events/op")
}

// benchIdleFabric measures the cost of pure fabric housekeeping: a network
// is built and the engine runs simulated time with zero flows, so the only
// work is the periodic DRE decay and flowlet sweep tickers. With dirty-list
// tickers this cost must not scale with the link count or flowlet-table
// size; the sub-benchmarks sweep the fabric size to make that visible.
func benchIdleFabric(b *testing.B, leaves int) {
	b.Helper()
	b.ReportAllocs()
	eng := sim.New()
	topo := Topology{Leaves: leaves, Spines: 2, HostsPerLeaf: 2, LinksPerSpine: 2,
		AccessGbps: 10, FabricGbps: 40}
	if _, err := topo.build([]*sim.Engine{eng}, SchemeCONGA, DefaultParams(), nil, 1, nil); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// 10 ms of idle fabric: 500 DRE decay periods and 20 flowlet sweeps.
		eng.Run(eng.Now() + 10*sim.Millisecond)
	}
}

// BenchmarkIdleFabric2Leaves is the baseline-size idle fabric (16 fabric
// links, 2 flowlet tables).
func BenchmarkIdleFabric2Leaves(b *testing.B) { benchIdleFabric(b, 2) }

// BenchmarkIdleFabric8Leaves has 4× the links and tables of the baseline.
func BenchmarkIdleFabric8Leaves(b *testing.B) { benchIdleFabric(b, 8) }

// BenchmarkIdleFabric32Leaves has 16× the links and tables of the baseline.
func BenchmarkIdleFabric32Leaves(b *testing.B) { benchIdleFabric(b, 32) }
