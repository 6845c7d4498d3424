package fabric

import (
	"testing"

	"conga/internal/sim"
)

// nopReceiver is a minimal Receiver for demux-table tests.
type nopReceiver struct{ id int }

func (*nopReceiver) Receive(*Packet, sim.Time) {}

// TestPortTableOps exercises the open-addressed demux table against a map
// reference across a mixed insert/lookup/delete sequence that forces
// several growths.
func TestPortTableOps(t *testing.T) {
	var pt portTable
	ref := map[int]*nopReceiver{}
	rng := sim.NewRand(7)
	for i := 0; i < 5000; i++ {
		port := 1 + rng.Intn(800) // small space: plenty of collisions and reuse
		switch {
		case rng.Intn(3) == 0:
			delete(ref, port)
			pt.delete(port)
		default:
			if _, ok := ref[port]; !ok {
				r := &nopReceiver{id: i}
				ref[port] = r
				if !pt.insert(port, r) {
					t.Fatalf("insert(%d) refused a free port", port)
				}
			} else if pt.insert(port, &nopReceiver{}) {
				t.Fatalf("insert(%d) accepted a taken port", port)
			}
		}
	}
	if pt.len() != len(ref) {
		t.Fatalf("table has %d entries, reference has %d", pt.len(), len(ref))
	}
	for port := 1; port <= 800; port++ {
		got, ok := pt.get(port)
		want, wok := ref[port]
		if ok != wok || (ok && got.(*nopReceiver) != want) {
			t.Fatalf("port %d: table (%v, %v) disagrees with reference (%v, %v)", port, got, ok, want, wok)
		}
	}
}

// TestPortTableCollisionDelete forces same-slot collisions and checks the
// backward-shift deletion keeps the probe chain intact — the classic
// open-addressing bug is deleting mid-chain and stranding later keys.
func TestPortTableCollisionDelete(t *testing.T) {
	var pt portTable
	pt.init(minPortTableSize)
	target := pt.slotFor(1)
	chain := []int{1}
	for p := 2; len(chain) < 4 && p < 1<<22; p++ {
		if pt.slotFor(int32(p)) == target {
			chain = append(chain, p)
		}
	}
	if len(chain) < 4 {
		t.Skip("could not find 4 colliding ports (hash changed?)")
	}
	recvs := make([]*nopReceiver, len(chain))
	for i, p := range chain {
		recvs[i] = &nopReceiver{id: i}
		pt.insert(p, recvs[i])
	}
	pt.delete(chain[1]) // mid-chain removal
	for i, p := range chain {
		if i == 1 {
			if pt.has(p) {
				t.Fatalf("deleted port %d still present", p)
			}
			continue
		}
		got, ok := pt.get(p)
		if !ok || got.(*nopReceiver) != recvs[i] {
			t.Fatalf("port %d lost after mid-chain delete (probe chain broken)", p)
		}
	}
}

// TestAllocPortSkipsLiveReceiver: the wraparound path must never hand out
// a port that still has a bound receiver.
func TestAllocPortSkipsLiveReceiver(t *testing.T) {
	h := newHost(0, 0, nil)
	h.Bind(101, &nopReceiver{})
	var got []int
	for i := 0; i < 7; i++ {
		got = append(got, h.allocPortIn(100, 105))
	}
	// nextPort starts at minPort, outside [100,105], so the first call
	// wraps to 100; 101 stays bound and must be skipped on every lap.
	want := []int{100, 102, 103, 104, 105, 100, 102}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("allocation sequence %v, want %v", got, want)
		}
	}
}

// TestAllocPortExhaustionPanics: when every port in the range is live the
// allocator must fail loudly instead of spinning or double-allocating.
func TestAllocPortExhaustionPanics(t *testing.T) {
	h := newHost(0, 0, nil)
	for p := 200; p <= 203; p++ {
		h.Bind(p, &nopReceiver{})
	}
	defer func() {
		if recover() == nil {
			t.Fatal("exhausted port range did not panic")
		}
	}()
	h.allocPortIn(200, 203)
}

// TestBindPanics: port 0 is the table's empty sentinel and duplicate binds
// are harness bugs; both must panic.
func TestBindPanics(t *testing.T) {
	for name, bind := range map[string]func(h *Host){
		"zero port":      func(h *Host) { h.Bind(0, &nopReceiver{}) },
		"negative port":  func(h *Host) { h.Bind(-5, &nopReceiver{}) },
		"duplicate port": func(h *Host) { h.Bind(80, &nopReceiver{}); h.Bind(80, &nopReceiver{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Bind did not panic", name)
				}
			}()
			bind(newHost(0, 0, nil))
		}()
	}
}

// FuzzPortTableMatchesMap drives portTable and a Go map with one op stream,
// three bytes an op: insert, delete, get or has, and a port in [1, 65536].
// Every result must agree, and after the stream so must the length and
// every port the stream named. The seeds grow the table past 16 slots, and
// build a probe chain from the last slot of a 16-slot table across the
// array end whose head they then delete, so the backward shift moves
// entries back across the wrap.
func FuzzPortTableMatchesMap(f *testing.F) {
	op := func(ops []byte, code byte, port int) []byte {
		return append(ops, code, byte(port-1), byte((port-1)>>8))
	}
	var probe portTable
	probe.init(minPortTableSize)
	var wrap []int // ports whose home is the last of 16 slots
	for p := 1; len(wrap) < 3; p++ {
		if probe.slotFor(int32(p)) == minPortTableSize-1 {
			wrap = append(wrap, p)
		}
	}
	var ops []byte
	for _, p := range wrap {
		ops = op(ops, 0, p)
	}
	ops = op(ops, 1, wrap[0])
	for _, p := range wrap {
		ops = op(op(ops, 2, p), 3, p)
	}
	f.Add(ops)
	ops = nil
	for p := 1; p <= 40; p++ {
		ops = op(ops, 0, p*7)
	}
	for p := 1; p <= 40; p += 3 {
		ops = op(op(ops, 1, p*7), 2, p*7+7)
	}
	f.Add(ops)
	f.Fuzz(func(t *testing.T, ops []byte) {
		var pt portTable
		ref := map[int]Receiver{}
		named := map[int]bool{}
		for k := 0; k+3 <= len(ops); k += 3 {
			port := 1 + (int(ops[k+1]) | int(ops[k+2])<<8)
			named[port] = true
			switch ops[k] % 4 {
			case 0:
				r := &nopReceiver{id: k}
				_, taken := ref[port]
				if got := pt.insert(port, r); got == taken {
					t.Fatalf("op %d: insert(%d) = %v with the port taken = %v", k/3, port, got, taken)
				}
				if !taken {
					ref[port] = r
				}
			case 1:
				pt.delete(port)
				delete(ref, port)
			case 2:
				got, ok := pt.get(port)
				want, wok := ref[port]
				if ok != wok || got != want {
					t.Fatalf("op %d: get(%d) = (%v, %v), map (%v, %v)", k/3, port, got, ok, want, wok)
				}
			case 3:
				if _, wok := ref[port]; pt.has(port) != wok {
					t.Fatalf("op %d: has(%d) = %v, map %v", k/3, port, !wok, wok)
				}
			}
		}
		if pt.len() != len(ref) {
			t.Fatalf("table holds %d ports, map %d", pt.len(), len(ref))
		}
		for port := range named {
			got, ok := pt.get(port)
			if want, wok := ref[port]; ok != wok || got != want {
				t.Fatalf("after the stream: get(%d) = (%v, %v), map (%v, %v)", port, got, ok, want, wok)
			}
		}
	})
}
