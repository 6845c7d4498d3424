package fabric

// portTable is the host's port→Receiver demux: an open-addressed hash
// table with linear probing, sized to the live endpoints. It replaces a
// Go map, whose insert+delete per flow (two ports each) dominated the
// flow-lifecycle allocation profile: the table's backing arrays are
// allocated once and reused, so binding and unbinding ports in steady
// state allocates nothing.
//
// Layout: power-of-two capacity, key 0 as the empty sentinel (port 0 is
// never bindable — Host.Bind rejects it), Fibonacci-multiplicative
// hashing, and backward-shift deletion so probe chains stay dense without
// deleted-slot markers. The table is only ever probed point-wise (Bind, Unbind,
// AllocPort, packet demux); nothing iterates it, so probe order cannot
// leak into simulation behavior.
type portTable struct {
	keys []int32
	vals []Receiver
	live int
}

// minPortTableSize is the initial capacity: 16 slots cover the common
// few-live-flows-per-host case without growth.
const minPortTableSize = 16

func (t *portTable) init(n int) {
	t.keys = make([]int32, n)
	t.vals = make([]Receiver, n)
	t.live = 0
}

// slotFor maps a port to its home slot (Fibonacci hashing: multiply by
// 2^64/φ and keep high-ish bits, which scatters sequential ports well).
func (t *portTable) slotFor(port int32) int {
	h := uint64(uint32(port)) * 0x9E3779B97F4A7C15
	return int(h>>32) & (len(t.keys) - 1)
}

func (t *portTable) len() int { return t.live }

// get returns the receiver bound to port, if any.
func (t *portTable) get(port int) (Receiver, bool) {
	if t.live == 0 {
		return nil, false
	}
	p := int32(port)
	mask := len(t.keys) - 1
	for i := t.slotFor(p); t.keys[i] != 0; i = (i + 1) & mask {
		if t.keys[i] == p {
			return t.vals[i], true
		}
	}
	return nil, false
}

// has reports whether port is bound.
func (t *portTable) has(port int) bool {
	_, ok := t.get(port)
	return ok
}

// insert binds port to r, reporting false if the port is already bound.
func (t *portTable) insert(port int, r Receiver) bool {
	if t.keys == nil {
		t.init(minPortTableSize)
	}
	// Grow at 3/4 load so probe chains stay short; doubling keeps the
	// power-of-two mask.
	if (t.live+1)*4 > len(t.keys)*3 {
		t.grow()
	}
	p := int32(port)
	mask := len(t.keys) - 1
	i := t.slotFor(p)
	for t.keys[i] != 0 {
		if t.keys[i] == p {
			return false
		}
		i = (i + 1) & mask
	}
	t.keys[i] = p
	t.vals[i] = r
	t.live++
	return true
}

// delete unbinds port (a no-op if unbound), using backward-shift deletion:
// entries displaced past the vacated slot move back into it, so lookups
// need no deleted-slot markers and long-lived tables never degrade.
func (t *portTable) delete(port int) {
	if t.live == 0 {
		return
	}
	p := int32(port)
	mask := len(t.keys) - 1
	i := t.slotFor(p)
	for t.keys[i] != p {
		if t.keys[i] == 0 {
			return
		}
		i = (i + 1) & mask
	}
	j := i
	for {
		t.keys[i] = 0
		t.vals[i] = nil
		for {
			j = (j + 1) & mask
			if t.keys[j] == 0 {
				t.live--
				return
			}
			// The entry at j may fill slot i only if i lies on its probe
			// path, i.e. its home slot is cyclically no later than i.
			if k := t.slotFor(t.keys[j]); (j-k)&mask >= (j-i)&mask {
				t.keys[i] = t.keys[j]
				t.vals[i] = t.vals[j]
				i = j
				break
			}
		}
	}
}

func (t *portTable) grow() {
	oldKeys, oldVals := t.keys, t.vals
	t.init(len(oldKeys) * 2)
	for i, k := range oldKeys {
		if k != 0 {
			t.insert(int(k), oldVals[i])
		}
	}
}
