package core

import (
	"testing"
	"testing/quick"

	"conga/internal/sim"
)

// TestDecideAlwaysPicksAMinimum: for arbitrary metric vectors, the chosen
// uplink's max(local, remote) equals the global minimum over allowed
// uplinks.
func TestDecideAlwaysPicksAMinimum(t *testing.T) {
	rng := sim.NewRand(1)
	err := quick.Check(func(localRaw, remoteRaw [8]uint8, allowedRaw uint8, preferred int8) bool {
		local := make([]uint8, 8)
		remote := make([]uint8, 8)
		allowed := make([]bool, 8)
		anyAllowed := false
		for i := 0; i < 8; i++ {
			local[i] = localRaw[i] % 8
			remote[i] = remoteRaw[i] % 8
			allowed[i] = allowedRaw>>uint(i)&1 == 1
			anyAllowed = anyAllowed || allowed[i]
		}
		choice := Decide(local, remote, allowed, int(preferred)%8, rng)
		if !anyAllowed {
			return choice == -1
		}
		if choice < 0 || choice >= 8 || !allowed[choice] {
			return false
		}
		chosen := max8(local[choice], remote[choice])
		for i := 0; i < 8; i++ {
			if allowed[i] && max8(local[i], remote[i]) < chosen {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 2000})
	if err != nil {
		t.Fatal(err)
	}
}

func max8(a, b uint8) uint8 {
	if a > b {
		return a
	}
	return b
}

// TestDREMonotoneInTraffic: more bytes never yields a smaller register or
// quantized metric.
func TestDREMonotoneInTraffic(t *testing.T) {
	err := quick.Check(func(addsRaw [16]uint16) bool {
		p := DefaultParams()
		a := NewDRE(10e9, p)
		b := NewDRE(10e9, p)
		for i, v := range addsRaw {
			a.Add(int(v))
			b.Add(int(v) + 100) // b always sees more traffic
			if i%4 == 3 {
				a.Decay()
				b.Decay()
			}
			if b.X() < a.X() || b.Quantized() < a.Quantized() {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

// TestFlowletTableLookupInstallAgree: whatever hash is installed is
// returned active with the same port on an immediate lookup.
func TestFlowletTableLookupInstallAgree(t *testing.T) {
	p := DefaultParams()
	p.FlowletTableSize = 512
	for _, mode := range []GapMode{GapModeAgeBit, GapModeTimestamp} {
		p.GapMode = mode
		ft := NewFlowletTable(p)
		err := quick.Check(func(hash uint64, portRaw uint8) bool {
			port := int(portRaw % 16)
			ft.Install(hash, port, 0)
			got, active := ft.Lookup(hash, 0)
			return active && got == port
		}, nil)
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
	}
}

// TestCongestionFromLeafFeedbackEventuallyCoversAll: every observed tag is
// fed back within one full rotation.
func TestCongestionFromLeafFeedbackEventuallyCoversAll(t *testing.T) {
	p := DefaultParams()
	cf := NewCongestionFromLeaf(1, 12, p)
	want := map[uint8]bool{}
	for tag := uint8(0); tag < 12; tag++ {
		cf.Observe(0, tag, tag%8, 0)
		want[tag] = true
	}
	for i := 0; i < 12; i++ {
		tag, _, ok := cf.PickFeedback(0, 0)
		if !ok {
			t.Fatal("feedback dried up early")
		}
		delete(want, tag)
	}
	if len(want) != 0 {
		t.Fatalf("tags never fed back: %v", want)
	}
}

// TestMetricAgingMonotoneDecay: once updates stop, the aged metric never
// increases over time.
func TestMetricAgingMonotoneDecay(t *testing.T) {
	p := DefaultParams()
	ct := NewCongestionToLeaf(1, 1, p)
	ct.Update(0, 0, 7, 0)
	prev := uint8(7)
	for at := sim.Time(0); at < 4*p.AgeTimeout; at += p.AgeTimeout / 8 {
		v := readMetric(ct, 0, 0, at)
		if v > prev {
			t.Fatalf("metric rose from %d to %d at %v", prev, v, at)
		}
		prev = v
	}
	if prev != 0 {
		t.Fatalf("metric never decayed to zero: %d", prev)
	}
}

// TestLeafDeterministicGivenSeed: identical call sequences on two leaves
// with equal seeds produce identical decisions.
func TestLeafDeterministicGivenSeed(t *testing.T) {
	p := DefaultParams()
	p.FlowletTableSize = 256
	mk := func() *Leaf { return NewLeaf(0, 4, 4, p, sim.NewRand(33)) }
	a, b := mk(), mk()
	rng := sim.NewRand(5)
	local := make([]uint8, 4)
	for i := 0; i < 3000; i++ {
		for j := range local {
			local[j] = uint8(rng.Intn(8))
		}
		hash := rng.Uint64()
		dst := 1 + rng.Intn(3)
		now := sim.Time(i) * 10 * sim.Microsecond
		ua, na := a.SelectUplink(hash, dst, local, nil, now)
		ub, nb := b.SelectUplink(hash, dst, local, nil, now)
		if ua != ub || na != nb {
			t.Fatalf("divergence at step %d: (%d,%v) vs (%d,%v)", i, ua, na, ub, nb)
		}
	}
}
