package workload

import (
	"math"
	"testing"

	"conga/internal/core"
	"conga/internal/fabric"
	"conga/internal/sim"
)

func TestNewEmpiricalValidation(t *testing.T) {
	bad := [][][2]float64{
		{{100, 0}},               // too few points
		{{100, 0}, {50, 1}},      // sizes not increasing
		{{100, 0.5}, {200, 0.2}}, // CDF not monotone
		{{100, 0}, {200, 0.5}},   // does not reach 1
		{{0, 0}, {100, 1}},       // non-positive size
		{{100, -0.1}, {200, 1}},  // CDF below 0
		{{100, 0}, {200, 0.5}, {300, 2}} /* CDF above 1 */}
	for i, pts := range bad {
		if _, err := NewEmpirical("bad", pts); err == nil {
			t.Errorf("bad distribution %d accepted", i)
		}
	}
	if _, err := NewEmpirical("ok", [][2]float64{{100, 0}, {1000, 1}}); err != nil {
		t.Fatal(err)
	}
}

func TestEmpiricalQuantileMonotone(t *testing.T) {
	e := DataMining()
	prev := 0.0
	for u := 0.001; u < 1; u += 0.001 {
		q := e.Quantile(u)
		if q < prev {
			t.Fatalf("quantile not monotone at u=%v: %v < %v", u, q, prev)
		}
		prev = q
	}
}

func TestEmpiricalSampleWithinSupport(t *testing.T) {
	r := sim.NewRand(1)
	for _, e := range []*Empirical{Enterprise(), DataMining(), WebSearch()} {
		min, max := e.sizes[0], e.sizes[len(e.sizes)-1]
		for i := 0; i < 10000; i++ {
			s := float64(e.Sample(r))
			if s < 1 || s > max+1 {
				t.Fatalf("%s: sample %v outside [1, %v]", e.Name(), s, max)
			}
			_ = min
		}
	}
}

func TestEmpiricalSampleMatchesCDF(t *testing.T) {
	e := DataMining()
	r := sim.NewRand(2)
	const n = 200000
	below1100 := 0
	for i := 0; i < n; i++ {
		if e.Sample(r) <= 1100 {
			below1100++
		}
	}
	frac := float64(below1100) / n
	if math.Abs(frac-0.50) > 0.01 {
		t.Fatalf("P[S ≤ 1100] = %.3f, want ≈ 0.50 (the published median)", frac)
	}
}

// TestWorkloadHeaviness pins the property §5.2.1 hinges on: in the
// enterprise workload about half the bytes come from flows ≤ 35 MB, while
// in data-mining those flows carry only a few percent.
func TestWorkloadHeaviness(t *testing.T) {
	ent := Enterprise().BytesFraction(35e6)
	if ent < 0.35 || ent > 0.65 {
		t.Fatalf("enterprise bytes ≤ 35MB = %.2f, want ≈ 0.5", ent)
	}
	dm := DataMining().BytesFraction(35e6)
	if dm > 0.15 {
		t.Fatalf("data-mining bytes ≤ 35MB = %.2f, want ≤ 0.15 (very heavy tail)", dm)
	}
}

func TestCVOrdering(t *testing.T) {
	// Theorem 2: higher CV ⇒ harder to balance. Data-mining must have a
	// larger coefficient of variation than web-search.
	dm, ws := DataMining().CV(), WebSearch().CV()
	if dm <= ws {
		t.Fatalf("CV(data-mining)=%.2f ≤ CV(web-search)=%.2f", dm, ws)
	}
	if dm < 3 {
		t.Fatalf("CV(data-mining)=%.2f implausibly small", dm)
	}
}

func TestFixedDist(t *testing.T) {
	f := Fixed(1000)
	if f.Sample(sim.NewRand(1)) != 1000 || f.Mean() != 1000 {
		t.Fatal("Fixed distribution broken")
	}
}

func TestMeanStableAndPositive(t *testing.T) {
	for _, e := range []*Empirical{Enterprise(), DataMining(), WebSearch()} {
		m1, m2 := e.Mean(), e.Mean()
		if m1 != m2 {
			t.Fatalf("%s: Mean not cached deterministically", e.Name())
		}
		if m1 <= 0 {
			t.Fatalf("%s: non-positive mean %v", e.Name(), m1)
		}
	}
	// Sanity: data-mining mean is megabytes (heavy tail), web-search is
	// hundreds of KB.
	if DataMining().Mean() < 1e6 {
		t.Fatalf("data-mining mean %v too small", DataMining().Mean())
	}
}

func testNet(t testing.TB) (*sim.Engine, *fabric.Network) {
	t.Helper()
	eng := sim.New()
	p := core.DefaultParams()
	p.FlowletTableSize = 1024
	n := fabric.MustNetwork(eng, fabric.Config{
		NumLeaves: 2, NumSpines: 2, HostsPerLeaf: 4, LinksPerSpine: 1,
		AccessRateBps: 1e9, FabricRateBps: 1e9,
		Scheme: fabric.SchemeECMP, Params: p, Seed: 3,
	})
	return eng, n
}

func TestGeneratorConfigValidation(t *testing.T) {
	eng, n := testNet(t)
	bad := []GenConfig{
		{Load: 0, Dist: Fixed(1), Duration: 1},
		{Load: 0.5, Dist: nil, Duration: 1},
		{Load: 0.5, Dist: Fixed(1), Duration: 0},
	}
	for i, cfg := range bad {
		if _, err := NewGenerator(eng, n, cfg, func(*fabric.Host, *fabric.Host, uint64, int64) {}); err == nil {
			t.Errorf("bad generator config %d accepted", i)
		}
	}
}

func TestGeneratorOfferedLoad(t *testing.T) {
	eng, n := testNet(t)
	cfg := GenConfig{
		Load:          0.5,
		Dist:          Fixed(100_000),
		Duration:      200 * sim.Millisecond,
		InterLeafOnly: true,
		Seed:          9,
	}
	type rec struct{ src, dst, size int64 }
	var flows []rec
	g, err := NewGenerator(eng, n, cfg, func(src, dst *fabric.Host, id uint64, size int64) {
		flows = append(flows, rec{int64(src.ID), int64(dst.ID), size})
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	eng.Run(cfg.Duration)

	// Offered bytes ≈ load × bisection × duration × numLeaves (both
	// directions): 0.5 × 2 Gbps/8 × 0.2 s × 2 = 50 MB.
	want := cfg.Load * g.BisectionBps() / 8 * cfg.Duration.Seconds() * 2
	got := float64(g.OfferedBytes)
	if math.Abs(got-want)/want > 0.15 {
		t.Fatalf("offered %0.f bytes, want ≈ %.0f", got, want)
	}
	// Every flow crosses leaves.
	for _, f := range flows {
		if f.src/4 == f.dst/4 {
			t.Fatalf("intra-leaf flow generated with InterLeafOnly: %+v", f)
		}
	}
}

func TestGeneratorMaxFlowsCap(t *testing.T) {
	eng, n := testNet(t)
	cfg := GenConfig{Load: 0.9, Dist: Fixed(1000), Duration: sim.Second, MaxFlows: 25, Seed: 4}
	g, err := NewGenerator(eng, n, cfg, func(*fabric.Host, *fabric.Host, uint64, int64) {})
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	eng.Run(sim.Second)
	if g.Generated != 25 {
		t.Fatalf("generated %d flows, want capped at 25", g.Generated)
	}
}

func TestGeneratorFlowIDStride(t *testing.T) {
	eng, n := testNet(t)
	cfg := GenConfig{Load: 0.9, Dist: Fixed(1000), Duration: sim.Second,
		MaxFlows: 10, Stride: 8, Seed: 4}
	var ids []uint64
	g, _ := NewGenerator(eng, n, cfg, func(_, _ *fabric.Host, id uint64, _ int64) {
		ids = append(ids, id)
	})
	g.Start()
	eng.Run(sim.Second)
	for i, id := range ids {
		if want := uint64(8 * i); id != want {
			t.Fatalf("flow %d has ID %d, want %d", i, id, want)
		}
	}
}

func TestGeneratorDeterministicAcrossRuns(t *testing.T) {
	run := func() []int64 {
		eng, n := testNet(t)
		var sizes []int64
		cfg := GenConfig{Load: 0.6, Dist: DataMining(), Duration: 50 * sim.Millisecond, Seed: 77}
		g, _ := NewGenerator(eng, n, cfg, func(_, _ *fabric.Host, _ uint64, size int64) {
			sizes = append(sizes, size)
		})
		g.Start()
		eng.Run(cfg.Duration)
		return sizes
	}
	a, b := run(), run()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("runs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at flow %d", i)
		}
	}
}

// TestPregenerateMatchesLive: Pregenerate returns, arrival for arrival,
// what the live process starts through the Starter at eng.Now() — the
// equivalence the FCT harness and its record/replay depend on.
func TestPregenerateMatchesLive(t *testing.T) {
	cfg := GenConfig{Load: 0.6, Dist: Enterprise(), Duration: 20 * sim.Millisecond, MaxFlows: 50, Seed: 5}

	var live []Arrival
	eng, n := testNet(t)
	g, err := NewGenerator(eng, n, cfg, func(src, dst *fabric.Host, id uint64, size int64) {
		live = append(live, Arrival{At: eng.Now(), Src: src.ID, Dst: dst.ID, FlowID: id, Size: size})
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	eng.Run(sim.Second)
	if len(live) == 0 || len(live) != g.Generated {
		t.Fatalf("started %d flows, generated %d", len(live), g.Generated)
	}

	eng2, n2 := testNet(t)
	g2, err := NewGenerator(eng2, n2, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	pre := g2.Pregenerate()
	if len(pre) != len(live) || g2.Generated != g.Generated || g2.OfferedBytes != g.OfferedBytes {
		t.Fatalf("pregenerated %d arrivals (%d B), live started %d (%d B)", len(pre), g2.OfferedBytes, len(live), g.OfferedBytes)
	}
	for i := range pre {
		if pre[i] != live[i] {
			t.Fatalf("live/pregenerate diverge at arrival %d: %+v vs %+v", i, live[i], pre[i])
		}
		if i > 0 && pre[i].At < pre[i-1].At {
			t.Fatalf("arrivals out of order at %d", i)
		}
	}
}
