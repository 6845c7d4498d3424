package core

import (
	"fmt"

	"conga/internal/sim"
)

// FlowletTable detects and tracks flowlets (§3.4). Each entry holds a port
// number, a valid bit and an age bit; packets index the table by a hash of
// their 5-tuple. A periodic sweep (every Tfl) expires entries whose age bit
// is still set, which detects inactivity gaps between Tfl and 2·Tfl with
// just one bit of state — the trick that lets the ASIC keep 64K entries.
//
// Hash collisions map distinct flows to the same entry. As the paper's
// Remark 1 observes, this only costs a load-balancing opportunity (the
// colliding flow rides the cached port), never correctness, so the table
// makes no attempt to resolve them.
//
// In GapModeTimestamp the table instead records a last-packet timestamp per
// entry and expires lazily on lookup; see GapMode for why both exist.
type FlowletTable struct {
	// Entry i lives in the slot keyed i+1, found by linear probing from
	// slot i&(len(slots)-1). An entry gets its slot from the first Install
	// into it and keeps it, so the table holds only the entries traffic
	// has touched; an entry with no slot reads as empty, with no previous
	// port. last runs parallel to slots.
	slots []flowletSlot
	last  []sim.Time // GapModeTimestamp only
	used  int        // slots holding an entry; ≤ len(slots)/2
	// GapModeAgeBit keeps an index list of entries that may need sweeping,
	// so Sweep walks the handful of live flowlets instead of every slot.
	// Invariant: flValid ⇒ flListed; flListed is cleared only when the
	// sweep drops the entry from the list.
	active []int32
	mode   GapMode
	tfl    sim.Time
	size   int    // entries
	mask   uint64 // size-1 when the size is a power of two, else 0
	// Expired counts entries invalidated by gap detection; Collisions is
	// not observable (hash collisions are indistinguishable from flowlet
	// reuse by design), but Installs and Hits support the concurrency
	// analysis in §2.6.1. Evicts counts installs that overwrote a
	// still-valid entry (only possible via direct Install without a prior
	// miss — the strategy path never does it, so nonzero Evicts flags an
	// unexpected reuse pattern).
	Installs, Hits, Expired, Evicts uint64
	live                            int // valid-entry count, maintained O(1)
}

// flowletSlot is one installed entry, packed like the ASIC's (§3.4: a port
// number, a valid bit and an age bit) behind the index it holds, in 8
// bytes, so eight share a cache line and a lookup at the table's load
// touches one line. Nothing is ever deleted: an expired entry still carries
// the port §3.5's tie-break reads.
type flowletSlot struct {
	key   int32  // entry index + 1; 0 = empty slot
	port  uint16 // uplink + 1
	flags uint8  // flValid | flAge | flListed
}

const (
	flValid  = 1 << iota // a flowlet is active on port
	flAge                // no packet since the last sweep (GapModeAgeBit)
	flListed             // entry is on the sweep's active list
)

// minFlowletSlots is a fresh table's capacity; it doubles whenever an
// install would fill more than half of it.
const minFlowletSlots = 16

// NewFlowletTable returns a table with p.FlowletTableSize entries using
// p.GapMode for gap detection. It holds no entry yet, in minFlowletSlots
// slots.
func NewFlowletTable(p Params) *FlowletTable {
	n := p.FlowletTableSize
	t := &FlowletTable{
		slots: make([]flowletSlot, minFlowletSlots),
		mode:  p.GapMode,
		tfl:   p.Tfl,
		size:  n,
	}
	if n&(n-1) == 0 {
		t.mask = uint64(n - 1)
	}
	if p.GapMode != GapModeAgeBit {
		t.last = make([]sim.Time, minFlowletSlots)
	}
	return t
}

// Len returns the number of entries.
func (t *FlowletTable) Len() int { return t.size }

func (t *FlowletTable) index(hash uint64) int {
	if t.mask != 0 {
		return int(hash & t.mask)
	}
	return int(hash % uint64(t.size))
}

// find returns the slot holding entry i, or −1 if no Install has reached it.
func (t *FlowletTable) find(i int) int {
	key, mask := int32(i+1), len(t.slots)-1
	for s := i & mask; ; s = (s + 1) & mask {
		switch t.slots[s].key {
		case key:
			return s
		case 0:
			return -1
		}
	}
}

// slot returns the slot holding entry i, giving it an empty one — after
// doubling the table if that would fill more than half of it — if it has
// none.
func (t *FlowletTable) slot(i int) int {
	if s := t.find(i); s >= 0 {
		return s
	}
	if 2*(t.used+1) > len(t.slots) {
		t.grow()
	}
	t.used++
	return t.place(int32(i + 1))
}

// place puts key into the first empty slot of its probe chain.
func (t *FlowletTable) place(key int32) int {
	mask := len(t.slots) - 1
	s := int(key-1) & mask
	for t.slots[s].key != 0 {
		s = (s + 1) & mask
	}
	t.slots[s].key = key
	return s
}

// grow doubles the slots, re-placing every entry (its timestamp with it).
func (t *FlowletTable) grow() {
	old, oldLast := t.slots, t.last
	t.slots = make([]flowletSlot, 2*len(old))
	if oldLast != nil {
		t.last = make([]sim.Time, len(t.slots))
	}
	for o, e := range old {
		if e.key == 0 {
			continue
		}
		s := t.place(e.key)
		t.slots[s] = e
		if oldLast != nil {
			t.last[s] = oldLast[o]
		}
	}
}

// Lookup processes a packet of the flow identified by hash. If the flowlet
// is active it returns (port, true) and refreshes the entry's age state.
// Otherwise it returns (lastPort, false): the packet starts a new flowlet,
// the caller must make a load-balancing decision and Install it. lastPort
// is the port the previous flowlet in this entry used (−1 if none); §3.5
// uses it as the tie-break preference so a flow only moves when a strictly
// better uplink exists.
func (t *FlowletTable) Lookup(hash uint64, now sim.Time) (port int, active bool) {
	s := t.find(t.index(hash))
	if s < 0 {
		return -1, false
	}
	e := &t.slots[s]
	if t.mode == GapModeTimestamp && e.flags&flValid != 0 && now-t.last[s] > t.tfl {
		e.flags &^= flValid
		t.Expired++
		t.live--
	}
	if e.flags&flValid != 0 {
		t.Hits++
		if t.mode == GapModeAgeBit {
			e.flags &^= flAge
		} else {
			t.last[s] = now
		}
		return int(e.port) - 1, true
	}
	return int(e.port) - 1, false
}

// valid reports whether the entry hash maps to currently holds an active
// flowlet, without touching its age state or the counters. Right after a
// Lookup of the same hash it equals that Lookup's active result.
func (t *FlowletTable) valid(hash uint64) bool {
	s := t.find(t.index(hash))
	return s >= 0 && t.slots[s].flags&flValid != 0
}

// Install caches the decision for a new flowlet: sets the port, the valid
// bit, and clears the age bit.
func (t *FlowletTable) Install(hash uint64, port int, now sim.Time) {
	i := t.index(hash)
	s := t.slot(i)
	e := &t.slots[s]
	e.port = uint16(port + 1)
	if e.flags&flValid != 0 {
		t.Evicts++
	} else {
		e.flags |= flValid
		t.live++
	}
	t.Installs++
	if t.mode == GapModeAgeBit {
		e.flags &^= flAge
		if e.flags&flListed == 0 {
			e.flags |= flListed
			t.active = append(t.active, int32(i))
		}
	} else {
		t.last[s] = now
	}
}

// Sweep implements the periodic age-bit check: entries whose age bit is
// still set have seen no packet for at least Tfl and are invalidated;
// surviving entries have their age bit set for the next round. The owning
// switch calls it every Tfl. In GapModeTimestamp it is a no-op.
func (t *FlowletTable) Sweep() {
	if t.mode != GapModeAgeBit {
		return
	}
	// Only listed entries can be valid, so walking the active list visits
	// every live flowlet; expired entries are compacted out in place.
	kept := t.active[:0]
	for _, i := range t.active {
		e := &t.slots[t.find(int(i))] // listed, so installed: it has a slot
		switch {
		case e.flags&flValid == 0:
			e.flags &^= flListed
		case e.flags&flAge != 0:
			e.flags &^= flValid | flListed
			t.Expired++
			t.live--
		default:
			e.flags |= flAge
			kept = append(kept, i)
		}
	}
	t.active = kept
}

// Live returns the number of currently valid entries in O(1); the counter
// is maintained by Install/Lookup/Sweep. In GapModeTimestamp it can
// overcount entries whose gap has passed but which haven't been looked up
// yet (expiry is lazy) — the same caveat the real table has.
func (t *FlowletTable) Live() int { return t.live }

// Active returns the number of currently valid entries; §2.6.1's
// measurement analysis argues this stays small (hundreds) even on heavily
// loaded leaves.
func (t *FlowletTable) Active() int {
	n := 0
	for _, e := range t.slots {
		if e.flags&flValid != 0 {
			n++
		}
	}
	return n
}

// Check audits the table's bookkeeping and returns an error naming the
// first invariant that fails: a valid entry is listed (GapModeAgeBit), the
// active list holds exactly the listed entries, once each, live equals the
// number of valid entries, and every installed index is found again by
// Lookup's own path. It reads the whole table, so it runs at a safe point
// (the fabric's flowlet sweep) and only when a run is audited.
func (t *FlowletTable) Check() error {
	onList := make(map[int32]bool, len(t.active))
	for _, i := range t.active {
		if onList[i] {
			return fmt.Errorf("flowlet active list holds entry %d twice", i)
		}
		onList[i] = true
	}
	valid, listed, used := 0, 0, 0
	for s, e := range t.slots {
		if e.key == 0 {
			continue
		}
		i := int(e.key - 1)
		used++
		if t.find(i) != s {
			return fmt.Errorf("flowlet entry %d is not found by Lookup", i)
		}
		if e.flags&flValid != 0 {
			valid++
			if t.mode == GapModeAgeBit && e.flags&flListed == 0 {
				return fmt.Errorf("flowlet entry %d is valid but not listed", i)
			}
		}
		if e.flags&flListed != 0 {
			listed++
			if !onList[int32(i)] {
				return fmt.Errorf("flowlet entry %d is listed but not on the active list", i)
			}
		}
	}
	if listed != len(onList) {
		return fmt.Errorf("flowlet active list holds %d entries, %d are listed", len(onList), listed)
	}
	if valid != t.live {
		return fmt.Errorf("flowlet live count %d, %d entries valid", t.live, valid)
	}
	if used != t.used {
		return fmt.Errorf("flowlet table counts %d installed entries, holds %d", t.used, used)
	}
	return nil
}

// FlowHash hashes a flow 5-tuple-like identity into the table index space.
// It is FNV-1a over the packed words followed by a murmur-style finalizer.
// The finalizer matters: raw FNV-1a's low bit is the parity of the input
// bytes, so structured tuples (e.g. src port derived from flow ID) collapse
// onto one ECMP bucket without it.
func FlowHash(src, dst, srcPort, dstPort, proto uint64) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, w := range [5]uint64{src, dst, srcPort, dstPort, proto} {
		for i := 0; i < 8; i++ {
			h ^= w >> (8 * i) & 0xff
			h *= prime
		}
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
