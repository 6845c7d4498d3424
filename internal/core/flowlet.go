package core

import "conga/internal/sim"

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
	// Entry i is pages.get(i>>pageShift)[i&pageMask]. A page is allocated
	// by the first Install into it; a page no flow has hashed to reads as
	// the shared zero page. last is paged the same way.
	pages rows[flowletEntry]
	last  rows[sim.Time] // GapModeTimestamp only
	// GapModeAgeBit keeps an index list of entries that may need sweeping,
	// so Sweep walks the handful of live flowlets instead of all 64K slots.
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

// flowletEntry is one table slot, packed like the ASIC's (§3.4: a port
// number, a valid bit and an age bit) so a lookup touches one cache line.
// The zero value means "empty, no previous port", so a page nothing has
// installed into needs no memory: it reads as the shared zero page.
type flowletEntry struct {
	port  uint16 // uplink + 1; 0 = no flowlet has used this slot yet
	flags uint8  // flValid | flAge | flListed
}

const (
	flValid  = 1 << iota // a flowlet is active on port
	flAge                // no packet since the last sweep (GapModeAgeBit)
	flListed             // slot is on the sweep's active list
)

// A page is 512 entries: 2 KB of flowletEntry, 4 KB of timestamps.
const (
	pageShift = 9
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// What every table's absent pages read as.
var (
	zeroPage  [pageSize]flowletEntry
	zeroTimes [pageSize]sim.Time
)

// NewFlowletTable returns a table with p.FlowletTableSize entries using
// p.GapMode for gap detection. It allocates no page; a table smaller than a
// page has one page of its own size.
func NewFlowletTable(p Params) *FlowletTable {
	n := p.FlowletTableSize
	pages, pageLen := (n+pageMask)>>pageShift, min(n, pageSize)
	t := &FlowletTable{
		pages: newRows(pages, pageLen, zeroPage[:]),
		mode:  p.GapMode,
		tfl:   p.Tfl,
		size:  n,
	}
	if n&(n-1) == 0 {
		t.mask = uint64(n - 1)
	}
	if p.GapMode != GapModeAgeBit {
		t.last = newRows(pages, pageLen, zeroTimes[:])
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

// Lookup processes a packet of the flow identified by hash. If the flowlet
// is active it returns (port, true) and refreshes the entry's age state.
// Otherwise it returns (lastPort, false): the packet starts a new flowlet,
// the caller must make a load-balancing decision and Install it. lastPort
// is the port the previous flowlet in this entry used (−1 if none); §3.5
// uses it as the tie-break preference so a flow only moves when a strictly
// better uplink exists.
func (t *FlowletTable) Lookup(hash uint64, now sim.Time) (port int, active bool) {
	i := t.index(hash)
	e := &t.pages.get(i >> pageShift)[i&pageMask] // written only if valid, so never the zero page
	if t.mode == GapModeTimestamp && e.flags&flValid != 0 && now-t.last.get(i >> pageShift)[i&pageMask] > t.tfl {
		e.flags &^= flValid
		t.Expired++
		t.live--
	}
	if e.flags&flValid != 0 {
		t.Hits++
		if t.mode == GapModeAgeBit {
			e.flags &^= flAge
		} else {
			t.last.put(i >> pageShift)[i&pageMask] = now
		}
		return int(e.port) - 1, true
	}
	return int(e.port) - 1, false
}

// valid reports whether the entry hash maps to currently holds an active
// flowlet, without touching its age state or the counters. Right after a
// Lookup of the same hash it equals that Lookup's active result.
func (t *FlowletTable) valid(hash uint64) bool {
	i := t.index(hash)
	return t.pages.get(i >> pageShift)[i&pageMask].flags&flValid != 0
}

// Install caches the decision for a new flowlet: sets the port, the valid
// bit, and clears the age bit.
func (t *FlowletTable) Install(hash uint64, port int, now sim.Time) {
	i := t.index(hash)
	e := &t.pages.put(i >> pageShift)[i&pageMask]
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
		t.last.put(i >> pageShift)[i&pageMask] = now
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
		e := &t.pages.get(int(i) >> pageShift)[i&pageMask] // listed, so installed: its page exists
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
	t.pages.each(func(page []flowletEntry) {
		for _, e := range page {
			if e.flags&flValid != 0 {
				n++
			}
		}
	})
	return n
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
