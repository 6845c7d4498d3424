package sim

import (
	"testing"
)

// wheelModel is the oracle for FuzzWheelMatchesHeap: every pending firing in
// one unsorted slice, popped by a linear scan for the (time, seq) minimum.
// It hands out sequence numbers at exactly the calls the engine does.
type wheelModel struct {
	now      Time
	nextSeq  uint64
	executed uint64
	q        []modelEnt
	fired    []int
	// rearm[k] > 0 makes node k schedule itself again, rearmBy[k] later,
	// from inside its own firing.
	rearm   [fuzzNodes]int
	rearmBy [fuzzNodes]Time
	// act[k] != 0 makes node k's next firing act on whatever is then the
	// queue's minimum — the event Run has just peeked and prefetched.
	act   [fuzzNodes]int
	actBy [fuzzNodes]Time
}

// What a firing does to the queue's minimum: cancel it, or (caller-owned
// nodes only; a closure is just cancelled, which recycles its pooled node)
// re-arm it halfway nearer or actBy later.
const (
	actCancel = 1 + iota
	actEarlier
	actLater
)

// actAt is where a node scheduled for at moves under act at time now.
func actAt(act int, now, at, by Time) Time {
	if act == actEarlier {
		return now + (at-now)/2
	}
	return at + by
}

type modelEnt struct {
	at     Time
	seq    uint64
	id     int // what the firing records
	daemon bool
	node   int // owning caller node, −1 for closures
}

const (
	fuzzNodes  = 4
	nodeIDBase = 1 << 20 // node k records nodeIDBase+k; closures count up from 0
)

func (m *wheelModel) reserve() uint64 {
	s := m.nextSeq
	m.nextSeq++
	return s
}

func (m *wheelModel) add(at Time, seq uint64, id int, daemon bool, node int) {
	m.q = append(m.q, modelEnt{at, seq, id, daemon, node})
}

// remove deletes the entry recording id and reports whether it was pending.
func (m *wheelModel) remove(id int) bool {
	for i, e := range m.q {
		if e.id == id {
			m.q = append(m.q[:i], m.q[i+1:]...)
			return true
		}
	}
	return false
}

func (m *wheelModel) live() int {
	n := 0
	for _, e := range m.q {
		if !e.daemon {
			n++
		}
	}
	return n
}

func (m *wheelModel) min() int {
	best := -1
	for i, e := range m.q {
		if best < 0 || e.at < m.q[best].at || (e.at == m.q[best].at && e.seq < m.q[best].seq) {
			best = i
		}
	}
	return best
}

// run is Engine.Run for a bounded until; one before the clock runs nothing.
func (m *wheelModel) run(until Time) {
	if until < m.now {
		return
	}
	for {
		i := m.min()
		if i < 0 || m.q[i].at > until {
			break
		}
		e := m.q[i]
		m.q = append(m.q[:i], m.q[i+1:]...)
		m.now = e.at
		m.executed++
		m.fired = append(m.fired, e.id)
		if k := e.node; k >= 0 && m.act[k] != 0 {
			act := m.act[k]
			m.act[k] = 0
			if i := m.min(); i >= 0 {
				target := m.q[i]
				m.q = append(m.q[:i], m.q[i+1:]...)
				if target.node >= 0 && act != actCancel {
					m.add(actAt(act, m.now, target.at, m.actBy[k]), m.reserve(), target.id, false, target.node)
				}
			}
		}
		if k := e.node; k >= 0 && m.rearm[k] > 0 {
			m.rearm[k]--
			m.add(m.now+m.rearmBy[k], m.reserve(), e.id, false, k)
		}
	}
	m.now = until
}

// fuzzNode is a caller-owned node with its handler, as a model object
// would embed them.
type fuzzNode struct {
	Node
	eng     *Engine
	id      int
	fired   *[]int
	rearm   int
	rearmBy Time
	act     int
	actBy   Time
	onMin   func(act int, by, now Time) // the harness's side of act
}

func (n *fuzzNode) Fire(now Time) {
	*n.fired = append(*n.fired, n.id)
	if n.Pending() {
		panic("node pending inside its own Fire")
	}
	if act := n.act; act != 0 {
		n.act = 0
		n.onMin(act, n.actBy, now)
	}
	if n.rearm > 0 {
		n.rearm--
		n.eng.AtNode(now+n.rearmBy, &n.Node, n)
	}
}

// fuzzDeltas reach every wheel level, both sides of each level boundary,
// and the far heap.
var fuzzDeltas = [16]Time{0, 1, 2, 100, 4095, 4096, 4097, 50 * Microsecond,
	2 * Millisecond, 3 * Millisecond, 500 * Millisecond, 2 * Second,
	8 * 60 * Second, 10 * 60 * Second, 3600 * Second, 7}

// FuzzWheelMatchesHeap plays an op stream — closures, daemons, reserved
// sequence numbers, caller-owned nodes (scheduled, cancelled, re-armed from
// inside their own Fire), firings that cancel or move the queue's current
// minimum (the node Run peeked and prefetched before the handler ran),
// cancels of live and stale handles, and bounded runs that stop short of the
// next event — against the engine and the model, and requires the same
// firing order, clock, Pending, Live, Executed, NextAt and cancel results
// throughout. Ops 3 and 10 drove two scheduling calls the engine no longer
// has. Op 3 still only consumes its operands and a closure id; op 10 does
// too, and its two operand bytes now arm a node's act on the minimum. Op 12
// runs the clock to just before the end of an aligned 2¹², 2²¹ or 2³⁰ ns
// block, where level 0's window meets the next block and (after an idle
// stretch) the next insert anchors level 0's window past level 1's end. Op
// 11 probes, then runs to a time before the clock, which must run nothing.
func FuzzWheelMatchesHeap(f *testing.F) {
	f.Add([]byte{})
	// A node re-arming itself across a level boundary between two closures.
	f.Add([]byte{8, 0, 3, 0x15, 4, 0, 0x04, 0, 0x05, 0, 0x06, 9, 0x08, 9, 0x0b})
	// Reserved sequence numbers used late, at the current instant and ahead.
	f.Add([]byte{2, 2, 0, 0x03, 0, 0x03, 3, 0x03, 5, 1, 0x03, 9, 0x02, 3, 0x00, 9, 0x04})
	// Cancels of pending, fired and recycled closures; CancelNode both ways.
	f.Add([]byte{0, 0x01, 0, 0x07, 6, 0, 6, 0, 9, 0x03, 6, 1, 0, 0x02, 6, 1, 4, 2, 0x09, 7, 2, 7, 2})
	// A bounded run that pops past its horizon, then schedules into the gap.
	f.Add([]byte{0, 0x07, 9, 0x05, 0, 0x03, 0, 0x06, 4, 1, 0x05, 11, 9, 0x07, 9, 0x09})
	// Same-time closures and a daemon around two op-10 arms (no node fires).
	f.Add([]byte{0, 0x03, 10, 0x03, 0x23, 1, 0x03, 10, 0x02, 0x31, 0, 0x03, 9, 0x04, 9, 0x08})
	// Node 0's firing cancels the peeked minimum: node 1, then a closure
	// (whose pooled node the next At reuses while a later closure waits).
	f.Add([]byte{10, 0, 0x04, 4, 0, 0x01, 4, 1, 0x02, 0, 0x03, 9, 0x03, 9, 0x03})
	f.Add([]byte{10, 0, 0x04, 4, 0, 0x01, 0, 0x02, 0, 0x03, 9, 0x01, 0, 0x02, 9, 0x03})
	// It re-arms the peeked node 1 earlier, and later across a level boundary.
	f.Add([]byte{10, 0, 0x08, 4, 0, 0x01, 4, 1, 0x03, 0, 0x04, 9, 0x04})
	f.Add([]byte{10, 0x05, 0x0c, 4, 0, 0x01, 4, 1, 0x02, 0, 0x03, 9, 0x06})
	// The clock enters the second half of level 0's window [4096, 12288) at
	// 12286 with 12287 pending; then inserts at the window's end −1, 0 (the
	// first insert into the next block advances the window), +4095 and +4096
	// (still one block ahead: level 1) — and the same four in the other order.
	f.Add([]byte{9, 0x05, 0, 0xf6, 12, 0x00, 0, 0x05, 12, 0x06, 11,
		0, 0x01, 0, 0x02, 0, 0x06, 0, 0x16, 11, 9, 0x08})
	f.Add([]byte{9, 0x05, 0, 0xf6, 12, 0x00, 0, 0x05, 12, 0x06, 11,
		0, 0x06, 0, 0x16, 0, 0x01, 0, 0x02, 11, 9, 0x08})
	// A bounded Run stops in the second half of [4096, 12288) after its peek
	// cascaded level 1's next event down, moving the window ahead of the
	// clock; the inserts that follow land behind the window's base.
	f.Add([]byte{9, 0x05, 0, 0xf6, 0, 0x07, 12, 0x00, 9, 0x13, 11,
		0, 0x00, 0, 0x03, 0, 0x05, 4, 0, 0x05, 11, 9, 0x08})
	// Idle gaps: with levels 0 and 1 empty, the next event comes down by the
	// re-anchor path from level 2 (500 ms, and node 0 re-arming itself every
	// 500 ms), then from level 3 (2 s, 8 min).
	f.Add([]byte{0, 0x0a, 0, 0x0c, 1, 0x09, 0, 0x03, 8, 0, 0x3a, 4, 0, 0x0a, 11, 9, 0x0e})
	// Runs to block ends of all three sizes, each followed by near inserts.
	// The first anchors level 0's window one block past level 1's end, and
	// parks events just past it, and 2 ms on, in level 2. The clock then
	// enters the window's second half, and the next insert advances level 0
	// into the block level 1 no longer covers: level 1 moves a block on and
	// refills from level 2, whose first event lands straight in level 0.
	f.Add([]byte{0, 0x06, 12, 0x01, 0, 0x05, 0, 0x16, 0, 0x08, 9, 0x03, 0, 0x16, 11,
		12, 0x02, 0, 0x05, 0, 0x07, 12, 0x00, 0, 0x06, 12, 0x05, 0, 0x04, 9, 0x0e})
	// A run stops at 100 short of an event at 4096, then op 11 runs to 99,
	// which must leave the clock at 100, and the drain fires the event.
	f.Add([]byte{0, 0x05, 9, 0x03, 11, 9, 0x08})
	rng := NewRand(14)
	for i := 0; i < 24; i++ {
		ops := make([]byte, 40+rng.Intn(400))
		for j := range ops {
			ops[j] = byte(rng.Uint64())
		}
		f.Add(ops)
	}

	f.Fuzz(func(t *testing.T, ops []byte) {
		e := New()
		m := &wheelModel{}
		var fired []int
		next := func() byte {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return b
		}
		delta := func() Time {
			b := next()
			return fuzzDeltas[b&15] + Time(b>>4)
		}
		var nodes [fuzzNodes]fuzzNode
		for k := range nodes {
			nodes[k] = fuzzNode{eng: e, id: nodeIDBase + k, fired: &fired}
		}
		var handles []EventHandle // handles[id] scheduled closure id
		var reserved []uint64
		// onMin finds the engine's minimum among everything this harness has
		// scheduled — by the (time, seq) the engine stamped on each node, not
		// by asking the wheel — and cancels or moves it.
		onMin := func(act int, by, now Time) {
			var min *Node
			node, id := -1, -1
			for k := range nodes {
				if n := &nodes[k].Node; n.Pending() && (min == nil || eventLess(n, min)) {
					min, node = n, k
				}
			}
			for i, h := range handles {
				if h.Pending() && (min == nil || eventLess(h.ev, min)) {
					min, node, id = h.ev, -1, i
				}
			}
			switch {
			case min == nil:
			case node < 0:
				handles[id].Cancel()
			default:
				at := min.at
				e.CancelNode(min)
				if act != actCancel {
					e.AtNode(actAt(act, now, at, by), min, &nodes[node])
				}
			}
		}
		for k := range nodes {
			nodes[k].onMin = onMin
		}
		closure := func(id int) Event { return func(Time) { fired = append(fired, id) } }
		check := func(step string) {
			t.Helper()
			if len(fired) != len(m.fired) {
				t.Fatalf("%s: engine fired %d events, model %d", step, len(fired), len(m.fired))
			}
			for i := range fired {
				if fired[i] != m.fired[i] {
					t.Fatalf("%s: firing %d is %d, model %d", step, i, fired[i], m.fired[i])
				}
			}
			if e.Now() != m.now || e.Pending() != len(m.q) || e.Live() != m.live() || e.Executed() != m.executed {
				t.Fatalf("%s: engine now %v pending %d live %d executed %d, model %v %d %d %d", step,
					e.Now(), e.Pending(), e.Live(), e.Executed(), m.now, len(m.q), m.live(), m.executed)
			}
			at, ok := e.NextAt()
			if i := m.min(); ok != (i >= 0) || (ok && at != m.q[i].at) {
				t.Fatalf("%s: NextAt = (%v, %v), model has %d pending", step, at, ok, len(m.q))
			}
			for k := range nodes {
				pending := false
				for _, en := range m.q {
					pending = pending || en.node == k
				}
				if nodes[k].Pending() != pending {
					t.Fatalf("%s: node %d pending %v, model %v", step, k, nodes[k].Pending(), pending)
				}
			}
		}
		for step := 0; len(ops) > 0 && step < 2000; step++ {
			switch op := next() % 13; op {
			case 0, 1: // At, AtDaemon
				at, id := e.Now()+delta(), len(handles)
				if op == 0 {
					handles = append(handles, e.At(at, closure(id)))
				} else {
					handles = append(handles, e.AtDaemon(at, closure(id)))
				}
				m.add(at, m.reserve(), id, op == 1, -1)
			case 2:
				reserved = append(reserved, e.ReserveSeq())
				if s := m.reserve(); s != reserved[len(reserved)-1] {
					t.Fatalf("ReserveSeq = %d, model %d", reserved[len(reserved)-1], s)
				}
			case 3: // retired: the oldest reservation stays unused, a hole in the sequence
				if len(reserved) == 0 {
					continue
				}
				delta()
				reserved = reserved[1:]
				handles = append(handles, EventHandle{})
			case 4, 5: // AtNode, AtNodeSeq
				k := int(next()) % fuzzNodes
				at := e.Now() + delta()
				if nodes[k].Pending() || (op == 5 && len(reserved) == 0) {
					continue
				}
				if op == 4 {
					e.AtNode(at, &nodes[k].Node, &nodes[k])
					m.add(at, m.reserve(), nodeIDBase+k, false, k)
				} else {
					e.AtNodeSeq(at, &nodes[k].Node, &nodes[k], reserved[0])
					m.add(at, reserved[0], nodeIDBase+k, false, k)
					reserved = reserved[1:]
				}
			case 6: // Cancel a closure: pending, spent or recycled
				if len(handles) == 0 {
					continue
				}
				id := int(next()) % len(handles)
				if handles[id] == (EventHandle{}) {
					continue // a retired op's id: nothing was scheduled
				}
				if got, want := handles[id].Cancel(), m.remove(id); got != want {
					t.Fatalf("step %d: Cancel(closure %d) = %v, model %v", step, id, got, want)
				}
				if handles[id].Pending() {
					t.Fatalf("step %d: closure %d pending after Cancel", step, id)
				}
			case 7:
				k := int(next()) % fuzzNodes
				if got, want := e.CancelNode(&nodes[k].Node), m.remove(nodeIDBase+k); got != want {
					t.Fatalf("step %d: CancelNode(%d) = %v, model %v", step, k, got, want)
				}
			case 8: // arm node k to reschedule itself from inside Fire
				k, b := int(next())%fuzzNodes, next()
				nodes[k].rearm, m.rearm[k] = int(b>>4)%4, int(b>>4)%4
				nodes[k].rearmBy, m.rearmBy[k] = fuzzDeltas[b&15], fuzzDeltas[b&15]
			case 9:
				until := e.Now() + delta()
				e.Run(until)
				m.run(until)
				check("Run")
			case 10: // arm node k to act on the minimum from inside its next Fire
				by, b := delta(), next()
				k, act := int(b)%fuzzNodes, int(b>>2)%4
				nodes[k].act, m.act[k] = act, act
				nodes[k].actBy, m.actBy[k] = by, by
				handles = append(handles, EventHandle{}) // the retired op's closure id
			case 11: // probe, then run to just before the clock
				check("probe")
				e.Run(e.Now() - 1)
				m.run(m.now - 1)
				check("Run into the past")
			case 12: // run to just before the end of an aligned block
				b := next()
				bits := [...]uint{l0Bits, l0Bits + lvlBits, l0Bits + 2*lvlBits}[b%3]
				until := (e.Now()>>bits+1)<<bits - 1 - Time(b>>2)
				if until <= e.Now() {
					until += 1 << bits
				}
				e.Run(until)
				m.run(until)
				check("Run to a block end")
			}
		}
		until := e.Now() + 12*3600*Second
		e.Run(until)
		m.run(until)
		check("drain")
		if e.Pending() != 0 {
			t.Fatalf("%d events left after the drain", e.Pending())
		}
	})
}

// FuzzQueueMatchesSlice drives a Queue of caller-owned nodes against a slice
// model. Each op byte's low three bits pick the operation and its high five
// a node or a delay. Push, PushFront, Pop and Head interleave with popping
// the head onto an Engine (AtNode), cancelling and running it; every firing
// pushes its node back at the tail from inside Fire, where it is idle again.
// After each op the queue, walked through Next, must equal the model, its
// tail must be the model's last node, no queued node may be pending, and a
// popped node's link must be clear. Pushing a pending node must panic and
// leave the queue as it was.
func FuzzQueueMatchesSlice(f *testing.F) {
	f.Add([]byte{})
	// PushFront into an empty queue, then Push behind it.
	f.Add([]byte{0x01, 0x08, 0x03, 0x02, 0x02})
	// Push 0..3, PushFront 4, pop one onto the engine, run it back in.
	f.Add([]byte{0x00, 0x08, 0x10, 0x18, 0x21, 0x04, 0x0d, 0x03, 0x02})
	// A pending node pushed and push-fronted (both panic), then cancelled
	// and pushed for real.
	f.Add([]byte{0x00, 0x04, 0x00, 0x01, 0x06, 0x00, 0x02, 0x03})
	// Everything onto the engine at staggered delays, then drained.
	f.Add([]byte{0x00, 0x08, 0x10, 0x18, 0x04, 0x0c, 0x14, 0x1c, 0x07, 0x02, 0x02, 0x02, 0x02, 0x02})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const nodes = 8
		var (
			eng    Engine
			q      Queue
			ns     [nodes]Node
			model  []int
			queued [nodes]bool
		)
		pop := func(i int) (*Node, int) {
			n := q.Pop()
			if len(model) == 0 {
				if n != nil {
					t.Fatalf("op %d: Pop on an empty queue returned a node", i)
				}
				return nil, -1
			}
			k := model[0]
			if n != &ns[k] {
				t.Fatalf("op %d: Pop returned the wrong node, want node %d", i, k)
			}
			if n.Next() != nil {
				t.Fatalf("op %d: popped node %d keeps a link", i, k)
			}
			model, queued[k] = model[1:], false
			return n, k
		}
		for i, b := range ops {
			k, arg := int(b>>3)%nodes, Time(b>>3)
			switch b & 7 {
			case 0, 1: // Push, PushFront
				push := q.Push
				if b&7 == 1 {
					push = q.PushFront
				}
				switch {
				case ns[k].Pending():
					func() {
						defer func() {
							if recover() == nil {
								t.Fatalf("op %d: queueing pending node %d did not panic", i, k)
							}
						}()
						push(&ns[k])
					}()
				case queued[k]: // a node is in at most one place of one queue
				default:
					push(&ns[k])
					if b&7 == 1 {
						model = append([]int{k}, model...)
					} else {
						model = append(model, k)
					}
					queued[k] = true
				}
			case 2:
				pop(i)
			case 3:
				if h := q.Head(); (len(model) == 0) != (h == nil) || h != nil && h != &ns[model[0]] {
					t.Fatalf("op %d: Head disagrees with the model %v", i, model)
				}
				if tl := q.Tail(); (len(model) == 0) != (tl == nil) || tl != nil && tl != &ns[model[len(model)-1]] {
					t.Fatalf("op %d: Tail disagrees with the model %v", i, model)
				}
			case 4: // the head goes onto the engine and comes back when it fires
				if n, k := pop(i); n != nil {
					eng.AtNode(eng.Now()+arg, n, Event(func(Time) {
						q.Push(n)
						model, queued[k] = append(model, k), true
					}))
				}
			case 5:
				eng.Run(eng.Now() + arg)
			case 6:
				eng.CancelNode(&ns[k])
			case 7:
				eng.Run(MaxTime)
			}

			j := 0
			for n := q.Head(); n != nil; n = n.Next() {
				if j >= len(model) || n != &ns[model[j]] {
					t.Fatalf("op %d: queue position %d disagrees with the model %v", i, j, model)
				}
				if n.Pending() {
					t.Fatalf("op %d: queued node %d is pending", i, model[j])
				}
				j++
			}
			if j != len(model) {
				t.Fatalf("op %d: queue holds %d nodes, the model %d", i, j, len(model))
			}
			if len(model) > 0 && q.tail != &ns[model[len(model)-1]] || len(model) == 0 && q.tail != nil {
				t.Fatalf("op %d: tail disagrees with the model %v", i, model)
			}
		}
	})
}
