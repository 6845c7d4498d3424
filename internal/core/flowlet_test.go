package core

import (
	"strings"
	"testing"
	"testing/quick"

	"conga/internal/sim"
)

func TestFlowletTableNewFlowletOnFirstPacket(t *testing.T) {
	ft := NewFlowletTable(testParams())
	port, active := ft.Lookup(42, 0)
	if active {
		t.Fatal("empty table reported an active flowlet")
	}
	if port != -1 {
		t.Fatalf("lastPort = %d for never-seen flow, want -1", port)
	}
}

func TestFlowletTableInstallThenHit(t *testing.T) {
	ft := NewFlowletTable(testParams())
	ft.Install(42, 3, 0)
	port, active := ft.Lookup(42, 100)
	if !active || port != 3 {
		t.Fatalf("lookup after install = (%d, %v), want (3, true)", port, active)
	}
}

// TestFlowletAgeBitGapDetection verifies the §3.4 semantics: with one age
// bit swept every Tfl, a gap shorter than Tfl never expires the entry, a
// gap longer than 2·Tfl always does, and gaps in between may or may not
// depending on phase.
func TestFlowletAgeBitGapDetection(t *testing.T) {
	p := testParams()
	p.GapMode = GapModeAgeBit
	tfl := p.Tfl

	run := func(gap sim.Time) bool {
		e := sim.New()
		ft := NewFlowletTable(p)
		sim.NewTicker(e, tfl, func(sim.Time) { ft.Sweep() })
		ft.Install(1, 2, 0)
		var active bool
		e.At(gap, func(now sim.Time) { _, active = ft.Lookup(1, now) })
		e.Run(gap)
		return active
	}

	// Gap clearly below Tfl: survives regardless of sweep phase.
	// (Install at 0, sweep at Tfl sets age, second packet before 2·Tfl...
	// actually a packet at 0.5·Tfl sees sweeps only at Tfl, so no sweep ran.)
	if !run(tfl / 2) {
		t.Error("flowlet expired after gap of Tfl/2")
	}
	// Gap of 1.5·Tfl: one sweep set the age bit, second hasn't run — survives.
	if !run(tfl + tfl/2) {
		t.Error("flowlet expired after 1.5·Tfl with this phase; age-bit scheme should keep it")
	}
	// Gap beyond 2·Tfl: two sweeps passed, must expire.
	if run(2*tfl + tfl/10) {
		t.Error("flowlet survived a gap > 2·Tfl")
	}
}

func TestFlowletAgeBitRefreshedByTraffic(t *testing.T) {
	p := testParams()
	e := sim.New()
	ft := NewFlowletTable(p)
	sim.NewTicker(e, p.Tfl, func(sim.Time) { ft.Sweep() })
	ft.Install(1, 5, 0)
	// Send a packet every 0.9·Tfl for 20 periods; the flowlet must stay
	// active throughout because every lookup clears the age bit.
	step := p.Tfl * 9 / 10
	ok := true
	for i := 1; i <= 20; i++ {
		at := sim.Time(i) * step
		e.At(at, func(now sim.Time) {
			if _, active := ft.Lookup(1, now); !active {
				ok = false
			}
		})
	}
	e.Run(21 * step) // bounded: the sweep ticker never stops on its own
	if !ok {
		t.Fatal("steadily refreshed flowlet expired")
	}
}

func TestFlowletTimestampModeExactGap(t *testing.T) {
	p := testParams()
	p.GapMode = GapModeTimestamp
	ft := NewFlowletTable(p)
	ft.Install(1, 4, 0)
	if _, active := ft.Lookup(1, p.Tfl); !active {
		t.Fatal("timestamp mode expired at exactly Tfl (boundary should be inclusive)")
	}
	ft.Install(2, 4, 0)
	if _, active := ft.Lookup(2, p.Tfl+1); active {
		t.Fatal("timestamp mode kept a flowlet past Tfl")
	}
}

func TestFlowletTimestampModeLastPortRetained(t *testing.T) {
	p := testParams()
	p.GapMode = GapModeTimestamp
	ft := NewFlowletTable(p)
	ft.Install(1, 4, 0)
	port, active := ft.Lookup(1, p.Tfl*10)
	if active {
		t.Fatal("expired flowlet still active")
	}
	if port != 4 {
		t.Fatalf("lastPort = %d after expiry, want 4 (tie-break preference)", port)
	}
}

func TestFlowletHashCollisionSharesEntry(t *testing.T) {
	p := testParams()
	p.FlowletTableSize = 8
	ft := NewFlowletTable(p)
	// Hashes 3 and 11 collide in an 8-entry table.
	ft.Install(3, 1, 0)
	port, active := ft.Lookup(11, 1)
	if !active || port != 1 {
		t.Fatalf("colliding flow = (%d, %v), want shared entry (1, true)", port, active)
	}
}

func TestFlowletTableNonPowerOfTwoSize(t *testing.T) {
	p := testParams()
	p.FlowletTableSize = 1000
	ft := NewFlowletTable(p)
	if ft.Len() != 1000 {
		t.Fatalf("table size %d, want 1000", ft.Len())
	}
	err := quick.Check(func(h uint64) bool {
		ft.Install(h, 2, 0)
		port, active := ft.Lookup(h, 0)
		return active && port == 2
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestFlowletActiveCount(t *testing.T) {
	p := testParams()
	ft := NewFlowletTable(p)
	for i := uint64(0); i < 10; i++ {
		ft.Install(i, 0, 0)
	}
	if got := ft.Active(); got != 10 {
		t.Fatalf("Active() = %d, want 10", got)
	}
	ft.Sweep()
	ft.Sweep() // all age bits set and swept → expired
	if got := ft.Active(); got != 0 {
		t.Fatalf("Active() after two sweeps = %d, want 0", got)
	}
	if ft.Expired != 10 {
		t.Fatalf("Expired = %d, want 10", ft.Expired)
	}
}

func TestFlowletSweepNoopInTimestampMode(t *testing.T) {
	p := testParams()
	p.GapMode = GapModeTimestamp
	ft := NewFlowletTable(p)
	ft.Install(1, 0, 0)
	ft.Sweep()
	ft.Sweep()
	if _, active := ft.Lookup(1, 0); !active {
		t.Fatal("Sweep expired entries in timestamp mode")
	}
}

func TestFlowHashDeterministicAndSpread(t *testing.T) {
	a := FlowHash(1, 2, 3, 4, 6)
	if a != FlowHash(1, 2, 3, 4, 6) {
		t.Fatal("FlowHash not deterministic")
	}
	if a == FlowHash(2, 1, 3, 4, 6) {
		t.Fatal("FlowHash ignores argument order")
	}
	// Spread: hashing 10k sequential flows into 1024 buckets should fill
	// most buckets.
	buckets := make(map[uint64]bool)
	for i := uint64(0); i < 10000; i++ {
		buckets[FlowHash(i, i+1, 1000+i, 80, 6)%1024] = true
	}
	if len(buckets) < 1000 {
		t.Fatalf("only %d/1024 buckets hit; hash clusters badly", len(buckets))
	}
}

// TestFlowletCheckNamesEachInvariant plants one fault per invariant Check
// audits into an otherwise consistent table and requires the error that
// names it.
func TestFlowletCheckNamesEachInvariant(t *testing.T) {
	build := func() *FlowletTable {
		p := testParams()
		p.FlowletTableSize = 1024
		ft := NewFlowletTable(p)
		ft.Install(5, 1, 0)
		ft.Install(21, 2, 0) // home slot 5 too: the second link of its chain
		if err := ft.Check(); err != nil {
			t.Fatalf("consistent table: %v", err)
		}
		return ft
	}
	for _, tc := range []struct {
		fault string
		plant func(ft *FlowletTable)
		want  string
	}{
		{"valid but unlisted", func(ft *FlowletTable) { ft.slots[ft.find(5)].flags &^= flListed }, "entry 5 is valid but not listed"},
		{"listed but off the list", func(ft *FlowletTable) { ft.active = ft.active[1:] }, "entry 5 is listed but not on the active list"},
		{"listed twice", func(ft *FlowletTable) { ft.active = append(ft.active, 21) }, "active list holds entry 21 twice"},
		{"unlisted on the list", func(ft *FlowletTable) { ft.active = append(ft.active, 9) }, "active list holds 3 entries, 2 are listed"},
		{"live miscounted", func(ft *FlowletTable) { ft.live++ }, "live count 3, 2 entries valid"},
		{"off its probe chain", func(ft *FlowletTable) {
			ft.slots[7], ft.slots[ft.find(21)] = ft.slots[ft.find(21)], flowletSlot{}
		}, "entry 21 is not found by Lookup"},
		{"used miscounted", func(ft *FlowletTable) { ft.used-- }, "counts 1 installed entries, holds 2"},
	} {
		ft := build()
		tc.plant(ft)
		if err := ft.Check(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Check() = %v, want an error naming %q", tc.fault, err, tc.want)
		}
	}
}

func BenchmarkFlowletLookupHit(b *testing.B) {
	ft := NewFlowletTable(DefaultParams())
	ft.Install(12345, 3, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ft.Lookup(12345, sim.Time(i))
	}
}

func BenchmarkFlowletSweep64K(b *testing.B) {
	ft := NewFlowletTable(DefaultParams())
	for i := uint64(0); i < 64*1024; i += 2 {
		ft.Install(i, 1, 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ft.Sweep()
	}
}

// The incremental sweep drops expired entries from its active list; an
// entry re-installed afterwards must be re-registered or it would never
// expire again.
func TestFlowletSweepReinstallAfterExpiry(t *testing.T) {
	p := testParams()
	p.GapMode = GapModeAgeBit
	tbl := NewFlowletTable(p)
	const hash = 12345
	tbl.Install(hash, 3, 0)
	tbl.Sweep() // sets age bit
	tbl.Sweep() // expires
	if _, active := tbl.Lookup(hash, 0); active {
		t.Fatal("entry still active after two idle sweeps")
	}
	if tbl.Expired != 1 {
		t.Fatalf("Expired = %d, want 1", tbl.Expired)
	}
	tbl.Install(hash, 5, 0)
	if port, active := tbl.Lookup(hash, 0); !active || port != 5 {
		t.Fatalf("reinstalled entry: port=%d active=%v, want 5 true", port, active)
	}
	tbl.Sweep()
	tbl.Sweep()
	if tbl.Expired != 2 {
		t.Fatalf("Expired = %d after reinstall + two sweeps, want 2", tbl.Expired)
	}
	if tbl.Active() != 0 {
		t.Fatalf("Active() = %d, want 0", tbl.Active())
	}
}
