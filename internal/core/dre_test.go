package core

import (
	"math"
	"testing"

	"conga/internal/sim"
)

func testParams() Params {
	p := DefaultParams()
	p.FlowletTableSize = 1024
	return p
}

func TestDREStartsAtZero(t *testing.T) {
	d := NewDRE(10e9, testParams())
	if d.X() != 0 || d.Quantized() != 0 || d.Utilization() != 0 {
		t.Fatalf("fresh DRE not zero: X=%v Q=%d U=%v", d.X(), d.Quantized(), d.Utilization())
	}
}

func TestDREPanicsOnNonPositiveCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewDRE(0) did not panic")
		}
	}()
	NewDRE(0, testParams())
}

// TestDREConvergesToRate checks the §3.2 claim X ≈ R·τ: feed packets at a
// steady rate R and verify X converges to R·τ within a few time constants.
func TestDREConvergesToRate(t *testing.T) {
	p := testParams()
	const capacity = 10e9 // 10 Gbps
	for _, loadFrac := range []float64{0.1, 0.5, 0.9} {
		d := NewDRE(capacity, p)
		rate := loadFrac * capacity / 8 // bytes/sec
		const pktBytes = 1500
		interval := float64(pktBytes) / rate // seconds between packets
		tdreSec := p.TDRE.Seconds()
		// Simulate 20 time constants of steady traffic.
		dur := 20 * p.Tau().Seconds()
		nextDecay := tdreSec
		for now := 0.0; now < dur; now += interval {
			for nextDecay <= now {
				d.Decay()
				nextDecay += tdreSec
			}
			d.Add(pktBytes)
		}
		// In discrete time the register saw-tooths between (1−α)·R·τ just
		// after a decay and R·τ just before the next one, so accept the
		// whole band (α = 1/8 → ±12.5%).
		wantX := rate * p.Tau().Seconds()
		if d.X() < (1-p.Alpha)*wantX*0.98 || d.X() > wantX*1.02 {
			t.Errorf("load %.0f%%: X = %.0f, want in [%.0f, %.0f] (R·τ band)",
				loadFrac*100, d.X(), (1-p.Alpha)*wantX, wantX)
		}
		if u := d.Utilization(); u < loadFrac*(1-p.Alpha)*0.98 || u > loadFrac*1.02 {
			t.Errorf("load %.0f%%: utilization %.3f outside band around %.3f", loadFrac*100, u, loadFrac)
		}
	}
}

func TestDREQuantization(t *testing.T) {
	p := testParams() // Q = 3 → metrics 0..7
	d := NewDRE(10e9, p)
	scale := 10e9 / 8 * p.Tau().Seconds() // C·τ bytes
	cases := []struct {
		util float64
		want uint8
	}{
		{0, 0},
		{0.10, 0},   // floor(0.8) = 0
		{0.1251, 1}, // just past 1/8
		{0.505, 4},  // past 4/8 (exact 0.5 sits on a float boundary)
		{0.874, 6},  // floor(6.99)
		{0.876, 7},  // floor(7.008)
		{1.0, 7},    // clamp
		{2.5, 7},    // clamp transient overshoot
	}
	for _, c := range cases {
		d.Reset()
		d.Add(int(c.util * scale))
		if got := d.Quantized(); got != c.want {
			t.Errorf("utilization %.4f: quantized = %d, want %d", c.util, got, c.want)
		}
	}
}

func TestDREDecayIsMultiplicative(t *testing.T) {
	p := testParams()
	d := NewDRE(10e9, p)
	d.Add(80000)
	d.Decay()
	want := 80000 * (1 - p.Alpha)
	if math.Abs(d.X()-want) > 1e-9 {
		t.Fatalf("after one decay X = %v, want %v", d.X(), want)
	}
}

// TestDREBurstVisibleImmediately verifies the §3.2 claim that the DRE
// responds immediately to bursts: right after a burst the register reflects
// the full burst, before any timer tick.
func TestDREBurstVisibleImmediately(t *testing.T) {
	p := testParams()
	d := NewDRE(10e9, p)
	scale := 10e9 / 8 * p.Tau().Seconds()
	d.Add(int(scale)) // a burst worth 100% of C·τ at once
	if d.Quantized() != p.MaxMetric() {
		t.Fatalf("burst not visible immediately: Q = %d", d.Quantized())
	}
}

func TestDREDecaysToZero(t *testing.T) {
	p := testParams()
	d := NewDRE(10e9, p)
	d.Add(1 << 20)
	for i := 0; i < 1000; i++ {
		d.Decay()
	}
	if d.Quantized() != 0 {
		t.Fatalf("idle DRE did not decay to zero: Q = %d, X = %v", d.Quantized(), d.X())
	}
}

func TestDREReset(t *testing.T) {
	d := NewDRE(10e9, testParams())
	d.Add(1 << 30)
	d.Reset()
	if d.X() != 0 {
		t.Fatal("Reset did not clear register")
	}
}

// TestDRERiseTime checks the documented (1 − e^−1) rise time of τ: starting
// from idle, after τ of steady full-rate traffic the register should be at
// ≈ 63% of its steady-state value.
func TestDRERiseTime(t *testing.T) {
	p := testParams()
	d := NewDRE(10e9, p)
	rate := 10e9 / 8.0
	tdreSec := p.TDRE.Seconds()
	steps := int(p.Tau().Seconds() / tdreSec) // τ worth of Tdre periods
	for i := 0; i < steps; i++ {
		d.Add(int(rate * tdreSec))
		d.Decay()
	}
	// Steady state of the add-then-decay recurrence is a·(1−α)/α; after
	// τ/Tdre steps the register reaches 1−(1−α)^(τ/Tdre) of it, which is
	// the discrete-time version of the documented 1−e^{−1} rise.
	steady := rate * tdreSec * (1 - p.Alpha) / p.Alpha
	frac := d.X() / steady
	if math.Abs(frac-(1-1/math.E)) > 0.08 {
		t.Fatalf("after τ, X at %.3f of steady state, want ≈ %.3f", frac, 1-1/math.E)
	}
}

func TestParamsValidate(t *testing.T) {
	good := DefaultParams()
	if err := good.Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	bad := []func(*Params){
		func(p *Params) { p.Q = 0 },
		func(p *Params) { p.Q = 7 },
		func(p *Params) { p.TDRE = 0 },
		func(p *Params) { p.Alpha = 0 },
		func(p *Params) { p.Alpha = 1 },
		func(p *Params) { p.Tfl = -1 },
		func(p *Params) { p.AgeTimeout = 0 },
		func(p *Params) { p.FlowletTableSize = 0 },
		func(p *Params) { p.FlowletTableSize = 1<<24 + 1 },
		func(p *Params) { p.MaxUplinks = 0 },
		func(p *Params) { p.MaxUplinks = 17 },
		func(p *Params) { p.GapMode = GapMode(9) },
	}
	for i, mutate := range bad {
		p := DefaultParams()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("bad params case %d validated", i)
		}
	}
}

func TestCongaFlowParams(t *testing.T) {
	p := CongaFlowParams()
	if p.Tfl != 13*sim.Millisecond {
		t.Fatalf("CONGA-Flow Tfl = %v, want 13ms", p.Tfl)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParamsTau(t *testing.T) {
	p := DefaultParams()
	if got := p.Tau(); got != 160*sim.Microsecond {
		t.Fatalf("τ = %v, want 160µs", got)
	}
	if p.MaxMetric() != 7 {
		t.Fatalf("MaxMetric = %d, want 7", p.MaxMetric())
	}
}
