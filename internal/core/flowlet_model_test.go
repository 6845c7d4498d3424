package core

import (
	"fmt"
	"testing"
	"unsafe"

	"conga/internal/sim"
	"conga/internal/telemetry"
)

// refFlowlets is the obvious flowlet table: a map of plain structs with one
// field per piece of §3.4 state and a sweep that visits every slot. It
// shares nothing with FlowletTable's packed entries, active list or O(1)
// live counter, so agreement between the two is evidence about the
// encoding rather than about one implementation twice.
type refFlowlets struct {
	size  int
	mode  GapMode
	tfl   sim.Time
	slots map[int]*refSlot

	installs, hits, expired, evicts uint64
}

type refSlot struct {
	port  int // −1 until a flowlet used the slot
	valid bool
	age   bool
	last  sim.Time
}

func newRefFlowlets(p Params) *refFlowlets {
	return &refFlowlets{size: p.FlowletTableSize, mode: p.GapMode, tfl: p.Tfl, slots: map[int]*refSlot{}}
}

func (r *refFlowlets) slot(hash uint64) *refSlot {
	i := int(hash % uint64(r.size))
	s := r.slots[i]
	if s == nil {
		s = &refSlot{port: -1}
		r.slots[i] = s
	}
	return s
}

func (r *refFlowlets) lookup(hash uint64, now sim.Time) (int, bool) {
	s := r.slot(hash)
	if r.mode == GapModeTimestamp && s.valid && now-s.last > r.tfl {
		s.valid = false
		r.expired++
	}
	if !s.valid {
		return s.port, false
	}
	r.hits++
	s.age = false
	s.last = now
	return s.port, true
}

func (r *refFlowlets) install(hash uint64, port int, now sim.Time) {
	s := r.slot(hash)
	if s.valid {
		r.evicts++
	}
	r.installs++
	*s = refSlot{port: port, valid: true, last: now}
}

func (r *refFlowlets) sweep() {
	if r.mode != GapModeAgeBit {
		return
	}
	for _, s := range r.slots {
		switch {
		case !s.valid:
		case s.age:
			s.valid = false
			r.expired++
		default:
			s.age = true
		}
	}
}

func (r *refFlowlets) live() int {
	n := 0
	for _, s := range r.slots {
		if s.valid {
			n++
		}
	}
	return n
}

// TestFlowletTableMatchesReferenceModel drives the packed table and the
// reference model with the same seeded random Lookup / Install / Sweep
// sequence — the strategy's lookup-then-install pattern, plus bare installs
// (evictions) and lookups the caller never follows up — and requires every
// return value and every counter to agree after every step. Small tables
// force heavy slot sharing; 5 and 1000 cover the modulo index path.
func TestFlowletTableMatchesReferenceModel(t *testing.T) {
	for _, mode := range []GapMode{GapModeAgeBit, GapModeTimestamp} {
		for _, size := range []int{1, 5, 64, 1000, 4096} {
			for seed := uint64(1); seed <= 3; seed++ {
				name := fmt.Sprintf("mode%d/size%d/seed%d", mode, size, seed)
				t.Run(name, func(t *testing.T) {
					p := testParams()
					p.GapMode = mode
					p.FlowletTableSize = size
					diffFlowlets(t, p, seed)
				})
			}
		}
	}
}

func diffFlowlets(t *testing.T, p Params, seed uint64) {
	ft, ref := NewFlowletTable(p), newRefFlowlets(p)
	rng := sim.NewRand(seed)
	// Few enough distinct flows that slots are revisited while still live,
	// expired, and swept off the active list; more flows than slots on the
	// small tables so distinct hashes collide.
	flows := 3 * p.FlowletTableSize
	if flows > 600 {
		flows = 600
	}
	now := sim.Time(0)
	for step := 0; step < 20000; step++ {
		// Time advances by up to Tfl/4 a step, so per-slot gaps straddle
		// Tfl; an occasional long pause expires even a one-slot table.
		now += sim.Time(rng.Intn(int(p.Tfl)/4 + 1))
		if rng.Intn(64) == 0 {
			now += 3 * p.Tfl
		}
		hash := FlowHash(uint64(rng.Intn(flows)), seed, 0, 0, 6)
		switch op := rng.Intn(20); {
		case op == 0:
			ft.Sweep()
			ref.sweep()
		case op == 1: // install without a lookup: the only way to evict
			port := rng.Intn(MaxUplinks)
			ft.Install(hash, port, now)
			ref.install(hash, port, now)
		default:
			gotPort, gotActive := ft.Lookup(hash, now)
			wantPort, wantActive := ref.lookup(hash, now)
			if gotPort != wantPort || gotActive != wantActive {
				t.Fatalf("step %d: Lookup = (%d, %v), model (%d, %v)", step, gotPort, gotActive, wantPort, wantActive)
			}
			if ft.valid(hash) != gotActive {
				t.Fatalf("step %d: valid = %v right after Lookup returned active = %v", step, ft.valid(hash), gotActive)
			}
			if !gotActive && op < 18 { // most misses install, some walk away
				port := rng.Intn(MaxUplinks)
				ft.Install(hash, port, now)
				ref.install(hash, port, now)
			}
		}
		if ft.Installs != ref.installs || ft.Hits != ref.hits || ft.Expired != ref.expired || ft.Evicts != ref.evicts {
			t.Fatalf("step %d: counters installs/hits/expired/evicts = %d/%d/%d/%d, model %d/%d/%d/%d", step,
				ft.Installs, ft.Hits, ft.Expired, ft.Evicts, ref.installs, ref.hits, ref.expired, ref.evicts)
		}
		// Check is a full scan: every step on small tables, sampled on large.
		if p.FlowletTableSize > 64 && step%50 != 0 {
			continue
		}
		if want := ref.live(); ft.Live() != want {
			t.Fatalf("step %d: Live = %d, model %d", step, ft.Live(), want)
		}
		if err := ft.Check(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	if ft.Hits == 0 || ft.Expired == 0 || ft.Evicts == 0 {
		t.Fatalf("sequence never exercised hits/expiry/eviction: %d/%d/%d", ft.Hits, ft.Expired, ft.Evicts)
	}
}

// TestFlowletEntryLayout pins the packed slot: eight bytes, so eight slots
// share a cache line, and an all-zero slot is empty — what a fresh table's
// minFlowletSlots slots are, reading as "no previous port".
func TestFlowletEntryLayout(t *testing.T) {
	if s := unsafe.Sizeof(flowletSlot{}); s != 8 {
		t.Fatalf("flowletSlot is %d bytes, want 8", s)
	}
	p := testParams()
	p.FlowletTableSize = 8
	ft := NewFlowletTable(p)
	if len(ft.slots) != minFlowletSlots || ft.used != 0 {
		t.Fatalf("fresh table: %d slots, %d used, want %d, 0", len(ft.slots), ft.used, minFlowletSlots)
	}
	if port, active := ft.Lookup(3, 0); port != -1 || active {
		t.Fatalf("zero entry reads (%d, %v), want (-1, false)", port, active)
	}
}

// slotsFor is the capacity a table holding n installed entries must have:
// the least power of two, at least minFlowletSlots, that keeps the load at
// or under one half.
func slotsFor(n int) int {
	c := minFlowletSlots
	for 2*n > c {
		c *= 2
	}
	return c
}

// FuzzFlowletTableMatchesModel drives the slot table and refFlowlets with
// one op stream — Lookup, Install, Sweep, valid, Live and Active, four bytes
// an op: the op, the hash's two low bytes (so an index is any value below
// 65536) and the time step — in either gap mode, and requires every result
// and counter to agree. After the stream the table holds exactly the
// distinct indices an Install hit, in slotsFor(that many) slots. Every seed
// opens with installs whose indices share the last slot's probe chain at 16
// slots, so the chain wraps across the array end, then installs enough
// further indices to grow the table past 16, 32 and 64 slots.
func FuzzFlowletTableMatchesModel(f *testing.F) {
	install := func(ops []byte, i int) []byte { return append(ops, 1, byte(i), byte(i>>8), 1) }
	for _, size := range []uint32{1, 2, 7, 16, 17, 1000, 65536} {
		for _, ts := range []bool{false, true} {
			rng := sim.NewRand(uint64(size))
			var ops []byte
			for _, i := range []int{15, 31, 47, 14, 0, int(size) - 1, int(size)} {
				ops = install(ops, i)
				ops = append(ops, 0, byte(i), byte(i>>8), 2, 3, byte(i), byte(i>>8), 0)
			}
			for k := 0; k < 40; k++ {
				ops = install(ops, 100+37*k)
			}
			for k := 0; k < 64; k++ {
				ops = append(ops, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(3)), byte(rng.Intn(48)))
			}
			f.Add(size, ts, ops)
		}
	}
	f.Fuzz(func(t *testing.T, size uint32, timestamp bool, ops []byte) {
		if size == 0 || size > 1<<17 {
			t.Skip()
		}
		p := testParams()
		p.FlowletTableSize = int(size)
		if timestamp {
			p.GapMode = GapModeTimestamp
		}
		ft, ref := NewFlowletTable(p), newRefFlowlets(p)
		installed := map[int]bool{}
		now := sim.Time(0)
		for k := 0; k+4 <= len(ops); k += 4 {
			op, hash := ops[k], uint64(ops[k+1])|uint64(ops[k+2])<<8
			now += sim.Time(ops[k+3]) * p.Tfl / 16
			switch op % 6 {
			case 0:
				gp, ga := ft.Lookup(hash, now)
				wp, wa := ref.lookup(hash, now)
				if gp != wp || ga != wa {
					t.Fatalf("op %d: Lookup(%d) = (%d, %v), model (%d, %v)", k/4, hash, gp, ga, wp, wa)
				}
			case 1:
				port := int(op>>3) % MaxUplinks
				ft.Install(hash, port, now)
				ref.install(hash, port, now)
				installed[int(hash%uint64(size))] = true
			case 2:
				ft.Sweep()
				ref.sweep()
			case 3:
				if g, w := ft.valid(hash), ref.slot(hash).valid; g != w {
					t.Fatalf("op %d: valid(%d) = %v, model %v", k/4, hash, g, w)
				}
			case 4:
				if g, w := ft.Live(), ref.live(); g != w {
					t.Fatalf("op %d: Live = %d, model %d", k/4, g, w)
				}
			case 5:
				if err := ft.Check(); err != nil {
					t.Fatalf("op %d: %v", k/4, err)
				}
			}
			if ft.Installs != ref.installs || ft.Hits != ref.hits || ft.Expired != ref.expired || ft.Evicts != ref.evicts {
				t.Fatalf("op %d: counters installs/hits/expired/evicts = %d/%d/%d/%d, model %d/%d/%d/%d", k/4,
					ft.Installs, ft.Hits, ft.Expired, ft.Evicts, ref.installs, ref.hits, ref.expired, ref.evicts)
			}
		}
		if err := ft.Check(); err != nil {
			t.Fatal(err)
		}
		if ft.used != len(installed) || len(ft.slots) != slotsFor(len(installed)) || (timestamp && len(ft.last) != len(ft.slots)) {
			t.Fatalf("%d entries in %d slots (%d timestamps) for %d distinct indices installed, want %d slots",
				ft.used, len(ft.slots), len(ft.last), len(installed), slotsFor(len(installed)))
		}
	})
}

// TestLeafHalvesReportEachPacketOnce checks, with decision hooks attached,
// that the split selection path reports every packet exactly once: sticky
// packets once from StickyUplink and never again, first packets once from
// NewFlowletUplink — whether the caller uses the halves or SelectUplink.
func TestLeafHalvesReportEachPacketOnce(t *testing.T) {
	for _, halves := range []bool{false, true} {
		l := newTestLeaf(t)
		hooks := telemetry.New(telemetry.Options{Decisions: true}).Decisions(l.ID, 4, 4)
		l.Hooks = hooks
		local := make([]uint8, 4)
		allowed := []bool{true, true, true, true}
		rng := sim.NewRand(5)
		packets := uint64(0)
		for now := sim.Time(0); now < 40*l.Params.Tfl; now += l.Params.Tfl / 8 {
			if now%l.Params.Tfl == 0 {
				l.SweepFlowlets()
			}
			hash := FlowHash(uint64(rng.Intn(12)), 0, 0, 0, 6)
			packets++
			if !halves {
				l.SelectUplink(hash, 1, local, allowed, now)
				continue
			}
			port, sticky := l.StickyUplink(hash, 1, allowed, now)
			if !sticky {
				l.NewFlowletUplink(hash, 1, local, allowed, port, now)
			}
		}
		fresh := hooks.NewFlowlet + hooks.Expired + hooks.Evicted
		if hooks.Sticky+fresh != packets {
			t.Fatalf("halves=%v: %d sticky + %d fresh reports for %d packets", halves, hooks.Sticky, fresh, packets)
		}
		if hooks.Sticky != l.Flowlets.Hits || fresh != l.Decisions {
			t.Fatalf("halves=%v: reports %d/%d, table hits %d, decisions %d", halves, hooks.Sticky, fresh, l.Flowlets.Hits, l.Decisions)
		}
		if hooks.Sticky == 0 || hooks.Expired == 0 {
			t.Fatalf("halves=%v: sequence had %d sticky, %d expired; want both", halves, hooks.Sticky, hooks.Expired)
		}
	}
}
