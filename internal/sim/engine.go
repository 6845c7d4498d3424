// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine keeps virtual time as int64 nanoseconds and executes events in
// (time, insertion-order) order, so two runs with the same seed and the same
// sequence of schedule calls produce identical results. All CONGA fabric,
// transport, and workload models in this repository are built on top of it.
//
// The engine is intentionally single-threaded: datacenter fabric experiments
// are run one engine per goroutine, and parallelism is obtained by running
// independent experiments concurrently (see internal/runner).
//
// The event queue is a hierarchical timing wheel: a near-horizon level of
// one-tick slots holding two 4096-tick blocks, the one the clock is in and
// the next, so an event less than one block ahead is placed there directly
// and found there once (the serialization + propagation band where almost
// all packet events land); three overflow levels covering ~2 ms, ~1 s and
// ~9 min, each handing one bucket down whenever the level below moves a
// block on; and a 4-ary min-heap fallback for anything beyond the wheel (or
// behind its base after a bounded Run). Push and pop are O(1) on the wheel;
// the heap is consulted only by comparing its root against the wheel
// minimum, so the (time, seq) execution order is exact no matter where an
// event is stored. The queue's element is the Node, owned
// by whoever schedules it: a model object embeds one per event it can have
// pending. Closures (At, AtDaemon) ride the same path on a pooled
// Node, recycled through a per-engine free list; their handles stay safe
// across recycling because every scheduling takes a fresh sequence number.
// See DESIGN.md for the bucket-sizing and determinism argument.
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"time"
	"unsafe"

	"conga/internal/prefetch"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation.
type Time int64

// Common durations expressed in engine ticks (nanoseconds).
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// MaxTime is the largest representable virtual time. Running an engine until
// MaxTime effectively means "until the event queue drains".
const MaxTime = Time(math.MaxInt64)

// Duration converts a standard library duration to engine ticks.
func Duration(d time.Duration) Time { return Time(d.Nanoseconds()) }

// Seconds converts virtual time to floating-point seconds, which is
// convenient when reporting rates and completion times.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time with the standard library's duration formatting.
func (t Time) String() string { return time.Duration(t).String() }

// Event is a scheduled callback. Events are one-shot; recurring behaviour is
// built by rescheduling from within the callback (see Ticker).
type Event func(now Time)

// Timing-wheel geometry. Level 0 has one-tick slots so a slot never mixes
// timestamps: within each of its two 4096-aligned blocks, slot index IS time
// order, and FIFO order within a slot IS seq order (appends are seq-monotone,
// see the refill invariant in DESIGN.md). Each overflow level widens slots
// by 2^lvlBits, and its slot is one block of the level below.
const (
	l0Bits  = 12 // a level-0 block: 4096 one-tick slots ≈ 4.1 µs
	l0Block = 1 << l0Bits
	l0Size  = 2 * l0Block // level 0 holds the clock's block and the next
	lvlBits = 9           // 512 slots per overflow level
	lvlSize = 1 << lvlBits
	numLvls = 3 // overflow levels: ~2.1 ms, ~1.07 s, ~9.2 min horizons
)

// Node locations (Node.loc): idle, wheel level k as locL0+k, or the far heap.
const (
	locNone = 0
	locL0   = 1
	locFar  = locL0 + numLvls + 1
)

// Handler is what a Node fires. Fire runs with the node already idle, so it
// may re-arm the node it was fired through.
type Handler interface{ Fire(now Time) }

// Fire makes a closure a Handler: At and AtDaemon are AtNode on a
// node from the engine's pool with the closure itself as the handler.
func (fn Event) Fire(now Time) { fn(now) }

// Node is the event queue's element. The zero value is idle. Whoever
// schedules a node owns it: it must stay at one address and must not be
// overwritten or released while Pending, and it holds at most one firing at
// a time (AtNode on a pending node panics). An owner that embeds it pays no
// event object, and no cache line beyond its own, per pending firing.
//
// A node is in one wheel bucket (pending) or in at most one Queue (idle),
// never both: an idle node's bucket link is free, so its owner may thread
// it through a Queue of its own until it schedules the node again.
type Node struct {
	at         Time
	seq        uint64 // insertion order; breaks ties deterministically
	next, prev *Node  // intrusive wheel-bucket list links
	h          Handler
	slot       int32 // wheel slot index, or far-heap index at locFar
	loc        int8
	daemon     bool // housekeeping; does not keep Run(MaxTime) alive
	pooled     bool // from the engine's pool (At, AtDaemon); Run recycles it once fired
}

// Pending reports whether the node is scheduled to fire.
func (n *Node) Pending() bool { return n.loc != locNone }

// bucket is one timing-wheel slot: a FIFO doubly-linked list of nodes.
type bucket struct{ head, tail *Node }

// Queue is a FIFO of idle nodes threaded through the bucket link an idle
// node leaves unused, so queueing allocates nothing and a node's owner
// finds its successor in the node itself. The zero value is empty. A node
// must be popped before it is scheduled again: scheduling rewrites the
// link.
type Queue struct{ head, tail *Node }

// Push appends the idle node n at the tail. It panics if n is pending.
func (q *Queue) Push(n *Node) {
	if n.loc != locNone {
		panic(fmt.Sprintf("sim: queueing a node pending at %v", n.at))
	}
	n.next = nil
	if q.tail == nil {
		q.head = n
	} else {
		q.tail.next = n
	}
	q.tail = n
}

// PushFront inserts the idle node n at the head, which makes the queue a
// stack for an owner that only pushes there. It panics if n is pending.
func (q *Queue) PushFront(n *Node) {
	if n.loc != locNone {
		panic(fmt.Sprintf("sim: queueing a node pending at %v", n.at))
	}
	n.next = q.head
	q.head = n
	if q.tail == nil {
		q.tail = n
	}
}

// Pop removes and returns the head node, with its link cleared, or nil
// when the queue is empty.
func (q *Queue) Pop() *Node {
	n := q.head
	if n == nil {
		return nil
	}
	q.head = n.next
	if q.head == nil {
		q.tail = nil
	}
	n.next = nil
	return n
}

// Head returns the head node without removing it, or nil when the queue is
// empty.
func (q *Queue) Head() *Node { return q.head }

// Tail returns the tail node without removing it, or nil when the queue is
// empty.
func (q *Queue) Tail() *Node { return q.tail }

// Next returns the node after n in its Queue, or nil at the tail. It is
// meaningful only while n is queued; audits and tests walk a queue with it.
func (n *Node) Next() *Node { return n.next }

// EventHandle identifies a scheduled closure so it can be cancelled. The
// zero value is not a valid handle. The sequence number doubles as the pooled
// node's generation: every scheduling takes a fresh one, so a handle kept
// past its event can never act on the recycled node's next occupant.
type EventHandle struct {
	eng *Engine
	ev  *Node
	seq uint64
}

// Cancel prevents the event from running. The event is removed from the
// queue immediately — its closure is dropped and the node recycled, so a
// cancelled event retains no memory until its time arrives. Cancelling an
// already-executed or already-cancelled event is a no-op. It reports whether
// the event was still pending.
func (h EventHandle) Cancel() bool {
	n := h.ev
	if n == nil || n.seq != h.seq || !h.eng.CancelNode(n) {
		return false
	}
	h.eng.recycle(n)
	return true
}

// Pending reports whether the event is still scheduled to run.
func (h EventHandle) Pending() bool {
	return h.ev != nil && h.ev.seq == h.seq && h.ev.Pending()
}

// Engine is a discrete-event simulator. The zero value is ready to use; New
// is provided for symmetry with the rest of the repository.
type Engine struct {
	now     Time
	nextSeq uint64
	live    int // pending non-daemon events
	pending int // all pending events
	// executed counts events that have run, for diagnostics and tests.
	executed uint64
	stopped  bool

	// Timing wheel. winEnd[k] is the exclusive end of level k's window and
	// is always aligned to level k's block size 2^(l0Bits + k·lvlBits).
	// Level 0's window is two blocks, [winEnd[0]−l0Size, winEnd[0]); each
	// overflow level's is one, so its slot index order equals time order.
	// Every overflow event lies at or past winEnd[0], so the earliest
	// level-0 slot, kept exact in l0min/l0minAt (MaxTime: level 0 is
	// empty), holds the wheel's minimum. wheel counts events resident in
	// any level; when it reaches zero the windows re-anchor at the current
	// clock on the next insert.
	winEnd   [numLvls + 1]Time
	wheel    int
	l0min    int32
	l0minAt  Time
	l0sum    [2]uint64 // bit i of l0sum[h] set ⇔ l0words[h<<6|i] != 0
	l0words  [l0Size / 64]uint64
	l0       [l0Size]bucket
	lvl      [numLvls][lvlSize]bucket
	lvlWords [numLvls][lvlSize / 64]uint64

	// far holds events beyond the wheel horizon — or (rarely) behind the
	// wheel base after a cascade overshot a bounded Run — as a 4-ary
	// min-heap on (at, seq). Its root is compared against the wheel
	// minimum at every pop, so placement never affects execution order.
	far []*Node

	free []*Node // idle pooled nodes

	// curSeq is the sequence number of the event currently executing. The
	// fabric's links compare it against the sequence numbers their claims
	// reserved to break same-instant ties (see ReserveSeq).
	curSeq uint64

	// How the queue did its work, for the run's self-description: buckets
	// moved down a level, the events in them, and events that missed the
	// wheel. None is on the per-event path.
	cascades, requeued, farPushes uint64
}

// New returns an engine with the clock at zero.
func New() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Executed returns the number of events that have run so far.
func (e *Engine) Executed() uint64 { return e.executed }

// Cascades returns how many overflow buckets the wheel has moved down a
// level, Requeued how many events those buckets held (each was placed once
// more), and FarPushes how many events landed in the far heap instead of
// the wheel.
func (e *Engine) Cascades() uint64  { return e.cascades }
func (e *Engine) Requeued() uint64  { return e.requeued }
func (e *Engine) FarPushes() uint64 { return e.farPushes }

// Pending returns the number of events waiting in the queue. Cancelled
// events are removed eagerly, so they never linger in this count.
func (e *Engine) Pending() int { return e.pending }

// Live returns the number of pending non-daemon events. The window runner
// (ParallelEngine) sums it across domains to decide global termination, the
// same criterion Run(MaxTime) applies to a single engine.
func (e *Engine) Live() int { return e.live }

// NextAt returns the timestamp of the earliest pending event (daemon or
// not) and whether one exists. Peeking may cascade the timing wheel but
// never reorders or executes anything.
func (e *Engine) NextAt() (Time, bool) {
	if ev := e.nextEvent(); ev != nil {
		return ev.at, true
	}
	return 0, false
}

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it is always a model bug, and silently reordering time would corrupt every
// downstream measurement.
func (e *Engine) At(t Time, fn Event) EventHandle {
	return e.atFn(t, fn, false)
}

// CurSeq returns the sequence number of the event currently executing.
// Between Run calls it orders after every number handed out so far: a
// reader outside any callback sees the instant with all its events done.
func (e *Engine) CurSeq() uint64 { return e.curSeq }

// ReserveSeq allocates and returns the next sequence number without
// scheduling anything. A reserved number may later back one AtNodeSeq call
// or be left unused; holes in the sequence space are harmless because
// tie-breaking only needs uniqueness and monotonicity. A fabric link
// reserves one per transmitter claim — the point in (time, seq) order where
// the claim expires — and only schedules an event under it if packets queue
// behind the claim.
func (e *Engine) ReserveSeq() uint64 {
	s := e.nextSeq
	e.nextSeq++
	return s
}

// AtDaemon schedules a housekeeping event: it runs like any other, but
// pending daemon events alone do not keep Run(MaxTime) alive. Periodic
// infrastructure (DRE decay, flowlet sweeps) uses daemon events so "run
// until the workload finishes" terminates.
func (e *Engine) AtDaemon(t Time, fn Event) EventHandle {
	return e.atFn(t, fn, true)
}

// atFn schedules fn on a node from the pool under the next sequence number.
func (e *Engine) atFn(t Time, fn Event, daemon bool) EventHandle {
	var n *Node
	if k := len(e.free); k > 0 {
		n = e.free[k-1]
		e.free = e.free[:k-1]
	} else {
		n = &Node{pooled: true}
	}
	seq := e.ReserveSeq()
	e.insert(t, n, fn, seq, daemon)
	return EventHandle{eng: e, ev: n, seq: seq}
}

// recycle returns a fired or cancelled pooled node to the free list,
// dropping its closure so a spent node retains nothing while it waits.
func (e *Engine) recycle(n *Node) {
	n.h = nil
	e.free = append(e.free, n)
}

// AtNode schedules h.Fire at absolute time t on the caller's idle node: a
// non-daemon event under the next sequence number, exactly as At's.
func (e *Engine) AtNode(t Time, n *Node, h Handler) {
	e.insert(t, n, h, e.ReserveSeq(), false)
}

// AtNodeSeq is AtNode under a sequence number from ReserveSeq, which must
// back at most this one call. t may equal Now: the event then runs within
// the current instant, ordered against its remaining events by seq.
func (e *Engine) AtNodeSeq(t Time, n *Node, h Handler, seq uint64) {
	e.insert(t, n, h, seq, false)
}

// CancelNode removes n from the queue and reports whether it was pending.
func (e *Engine) CancelNode(n *Node) bool {
	if n.loc == locNone {
		return false
	}
	if !n.daemon {
		e.live--
	}
	e.remove(n)
	e.pending--
	return true
}

// insert is the one way into the queue: every scheduling call ends here.
func (e *Engine) insert(t Time, n *Node, h Handler, seq uint64, daemon bool) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	if n.loc != locNone {
		panic(fmt.Sprintf("sim: node already pending at %v, rescheduled for %v", n.at, t))
	}
	n.at, n.seq, n.h, n.daemon = t, seq, h, daemon
	if !daemon {
		e.live++
	}
	e.pending++
	if e.wheel == 0 {
		// An empty wheel re-anchors at the clock for free, which keeps the
		// near horizon tight across drain/refill cycles and makes the
		// zero-value Engine work.
		e.anchor()
	} else if t >= e.winEnd[0] && t < e.winEnd[0]+l0Block && e.now >= e.winEnd[0]-l0Block {
		// The first insert into the block after level 0's window. The clock
		// has left the window's first half, so that half is empty and
		// becomes this block.
		e.advance()
	}
	e.place(n)
	if p := n.prev; p != nil && p.seq > seq {
		e.restoreBucketOrder(n)
	}
}

// restoreBucketOrder moves n — just appended to its wheel bucket's tail —
// backward past the higher-seq entries before it, restoring the buckets'
// seq-sorted invariant after an out-of-order reserved-seq insert (a link
// claim turning contended) or a bounded Run putting back the minimum it
// popped. Far-heap nodes order themselves and have no list links.
func (e *Engine) restoreBucketOrder(n *Node) {
	b := &e.l0[n.slot]
	if n.loc != locL0 {
		b = &e.lvl[n.loc-locL0-1][n.slot]
	}
	for n.prev != nil && n.prev.seq > n.seq {
		p := n.prev
		p.next = n.next
		if n.next != nil {
			n.next.prev = p
		} else {
			b.tail = p
		}
		n.prev = p.prev
		if p.prev != nil {
			p.prev.next = n
		} else {
			b.head = n
		}
		n.next = p
		p.prev = n
	}
}

// anchor positions every wheel window at the clock: level k's window is the
// aligned block containing now, followed at level 0 by the next block. Only
// valid when the wheel is empty.
func (e *Engine) anchor() {
	for k := 0; k <= numLvls; k++ {
		span := Time(1) << (l0Bits + k*lvlBits)
		e.winEnd[k] = (e.now &^ (span - 1)) + span
	}
	e.winEnd[0] += l0Block
	e.l0minAt = MaxTime // level 0 is empty; this also readies the zero value
}

// place routes ev into the wheel level whose window covers ev.at, or into
// the far heap when no window does. It does not touch live/pending.
func (e *Engine) place(ev *Node) {
	t := ev.at
	if t < e.winEnd[0] {
		if t >= e.winEnd[0]-l0Size {
			s := int32(t & (l0Size - 1))
			ev.loc, ev.slot = locL0, s
			b := &e.l0[s]
			if b.tail == nil {
				b.head = ev
				ev.prev = nil
				e.l0words[s>>6] |= 1 << (uint32(s) & 63)
				e.l0sum[s>>l0Bits] |= 1 << ((uint32(s) >> 6) & 63)
				if t < e.l0minAt {
					e.l0min, e.l0minAt = s, t
				}
			} else {
				ev.prev = b.tail
				b.tail.next = ev
			}
			b.tail = ev
			ev.next = nil
			e.wheel++
			return
		}
		// Behind level 0's window: a cascade overshot a bounded Run and the
		// caller scheduled into the gap.
		e.farPush(ev)
		return
	}
	for k := 1; k <= numLvls; k++ {
		if t < e.winEnd[k] {
			shift := uint(l0Bits + (k-1)*lvlBits)
			s := int32((t >> shift) & (lvlSize - 1))
			ev.loc, ev.slot = int8(locL0+k), s
			b := &e.lvl[k-1][s]
			if b.tail == nil {
				b.head = ev
				ev.prev = nil
				e.lvlWords[k-1][s>>6] |= 1 << (uint32(s) & 63)
			} else {
				ev.prev = b.tail
				b.tail.next = ev
			}
			b.tail = ev
			ev.next = nil
			e.wheel++
			return
		}
	}
	e.farPush(ev) // beyond the wheel horizon
}

// remove unlinks ev from wherever it is queued (wheel bucket or far heap).
func (e *Engine) remove(ev *Node) {
	if ev.loc == locFar {
		e.farRemove(int(ev.slot))
		ev.loc = locNone
		return
	}
	var b *bucket
	s := ev.slot
	if ev.loc == locL0 {
		b = &e.l0[s]
	} else {
		b = &e.lvl[ev.loc-locL0-1][s]
	}
	if ev.prev != nil {
		ev.prev.next = ev.next
	} else {
		b.head = ev.next
	}
	if ev.next != nil {
		ev.next.prev = ev.prev
	} else {
		b.tail = ev.prev
	}
	if b.head == nil {
		if ev.loc == locL0 {
			e.l0clear(s)
			if s == e.l0min {
				e.l0scan()
			}
		} else {
			e.lvlWords[ev.loc-locL0-1][s>>6] &^= 1 << (uint32(s) & 63)
		}
	}
	ev.prev, ev.next = nil, nil
	ev.loc = locNone
	e.wheel--
}

// l0clear marks level-0 slot s empty in the bitmaps.
func (e *Engine) l0clear(s int32) {
	e.l0words[s>>6] &^= 1 << (uint32(s) & 63)
	if e.l0words[s>>6] == 0 {
		e.l0sum[s>>l0Bits] &^= 1 << ((uint32(s) >> 6) & 63)
	}
}

// l0scan sets l0min/l0minAt to the earliest occupied level-0 slot, or
// l0minAt to MaxTime when there is none. The window's first block is
// searched before its second; a slot's time follows from the window, so no
// node is read.
func (e *Engine) l0scan() {
	start := e.winEnd[0] - l0Size
	h := int(start>>l0Bits) & 1 // the half of l0 holding the first block
	if e.l0sum[h] == 0 {
		start += l0Block
		h ^= 1
		if e.l0sum[h] == 0 {
			e.l0minAt = MaxTime
			return
		}
	}
	wd := h<<6 | bits.TrailingZeros64(e.l0sum[h])
	s := wd<<6 | bits.TrailingZeros64(e.l0words[wd])
	e.l0min, e.l0minAt = int32(s), start+Time(s&(l0Block-1))
}

// advance moves level 0's window one block on: the block the clock has left
// is reused for the one after the window, filled from level 1.
func (e *Engine) advance() {
	e.winEnd[0] += l0Block
	e.refill(1, e.winEnd[0]-l0Block)
}

// refill moves into level k−1 the one level-k bucket covering start, a time
// in level k−1's new block: that bucket is the block. Level k is exhausted
// when its window ends at or before start: it then moves one block on
// first, refilling from the level above, and past the last level the far
// heap keeps what lies beyond. The bucket's list is in seq order and its
// target slots are empty (they belong to the block just vacated, or to the
// exhausted level below), so per-slot FIFO order stays seq order.
func (e *Engine) refill(k int, start Time) {
	if k > numLvls {
		return
	}
	shift := uint(l0Bits + (k-1)*lvlBits) // a level-k slot is a level-(k−1) block
	if start >= e.winEnd[k] {
		e.winEnd[k] += Time(1) << (shift + lvlBits)
		e.refill(k+1, start)
	}
	s := int32(start>>shift) & (lvlSize - 1)
	b := &e.lvl[k-1][s]
	head := b.head
	if head == nil {
		return
	}
	b.head, b.tail = nil, nil
	e.lvlWords[k-1][s>>6] &^= 1 << (uint32(s) & 63)
	e.cascades++
	for ev := head; ev != nil; {
		next := ev.next
		e.wheel--
		e.requeued++
		e.place(ev)
		ev = next
	}
}

// cascade refills an empty level 0 from the lowest occupied overflow level:
// the empty windows below it re-anchor to end where that level's earliest
// occupied bucket begins, and advance pulls the bucket down through them.
// A level-k bucket (k ≥ 2) lands one level down, or straight in level 0 for
// its first block, so the caller repeats until level 0 is occupied.
func (e *Engine) cascade() {
	for k := 1; k <= numLvls; k++ {
		for w, word := range e.lvlWords[k-1] {
			if word == 0 {
				continue
			}
			shift := uint(l0Bits + (k-1)*lvlBits)
			s := Time(w<<6 | bits.TrailingZeros64(word))
			base := e.winEnd[k] - Time(1)<<(shift+lvlBits) + s<<shift
			for j := 0; j < k; j++ {
				e.winEnd[j] = base
			}
			e.advance()
			return
		}
	}
	panic(fmt.Sprintf("sim: %d events counted in the wheel, none in it", e.wheel))
}

// wheelMin returns the wheel's earliest event, cascading while level 0 is
// empty, or nil when the wheel is. Within each level-0 block slot index
// order is time order and bucket FIFO order is seq order, so the head of
// the earliest occupied level-0 slot is the wheel's exact (time, seq)
// minimum.
func (e *Engine) wheelMin() *Node {
	if e.wheel == 0 {
		return nil
	}
	for e.l0minAt == MaxTime {
		e.cascade()
	}
	return e.l0[e.l0min].head
}

// nextEvent returns the earliest pending event without removing it (the
// wheel may cascade as a side effect), or nil when nothing is pending.
func (e *Engine) nextEvent() *Node {
	w := e.wheelMin()
	if len(e.far) > 0 {
		f := e.far[0]
		if w == nil || eventLess(f, w) {
			return f
		}
	}
	return w
}

// popMin removes and returns the earliest pending event (cascading as
// needed), or nil when nothing is pending. It is nextEvent+remove fused
// for Run's hot loop: the minimum is almost always the head of the earliest
// level-0 slot, which unlinks with two stores — plus, when that empties the
// slot, the bitmap clears and the one search for the next minimum — none of
// remove's generic prev/level dispatch. It does not touch pending; the
// caller owns that bookkeeping, as with remove.
func (e *Engine) popMin() *Node {
	w := e.wheelMin()
	if len(e.far) > 0 {
		f := e.far[0]
		if w == nil || eventLess(f, w) {
			e.farRemove(0)
			f.loc = locNone
			return f
		}
	}
	if w == nil {
		return nil
	}
	b := &e.l0[e.l0min]
	b.head = w.next
	if w.next != nil {
		w.next.prev = nil
	} else {
		b.tail = nil
		e.l0clear(e.l0min)
		e.l0scan()
	}
	w.next = nil
	w.loc = locNone
	e.wheel--
	return w
}

// After schedules fn to run d ticks from now.
func (e *Engine) After(d Time, fn Event) EventHandle {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.At(e.now+d, fn)
}

// Stop makes Run return after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events in order until the queue is empty, the until time is
// reached, or Stop is called. Events scheduled exactly at until still run
// (the interval is closed), which makes "run until end of measurement
// window" natural to express. It returns the time of the last executed event
// or until, whichever is smaller. An until before Now runs nothing and
// returns Now: the clock never moves backwards.
func (e *Engine) Run(until Time) Time {
	e.stopped = false
	defer func() { e.curSeq = e.nextSeq }()
	if until < e.now {
		return e.now
	}
	for e.pending > 0 && !e.stopped {
		// With no live (non-daemon) work left, an unbounded run is done:
		// only periodic housekeeping remains and it would tick forever.
		if until == MaxTime && e.live == 0 {
			break
		}
		// If the minimum lies beyond the bounded run it goes back into the
		// wheel (restoring its bucket-head position — it was the minimum, so
		// it re-enters its slot with the smallest seq) for a later Run to find.
		next := e.popMin()
		if next.at > until {
			e.now = until
			e.place(next)
			if next.prev != nil {
				e.restoreBucketOrder(next)
			}
			return e.now
		}
		e.pending--
		e.now = next.at
		e.curSeq = next.seq
		if !next.daemon {
			e.live--
		}
		e.executed++
		// Second pipeline stage: start filling the lines of the event after
		// this one while this one's handler runs. The peek reads the level-0
		// minimum popMin left in l0min — no search, no cascade, no far-heap
		// compare, nothing written — so when the handler cancels, overtakes
		// or recycles the peeked node the hint was wasted and nothing else.
		if e.l0minAt != MaxTime {
			prefetch.Lines2(unsafe.Pointer(e.l0[e.l0min].head))
		}
		// The node is idle from here on: its owner's Fire may re-arm it.
		next.h.Fire(e.now)
		if next.pooled {
			e.recycle(next)
		}
	}
	// When the queue drains before until, advance the clock to until so
	// callers can express "idle until the end of the window" — except for
	// MaxTime, which means "run to completion" and should leave the clock at
	// the last event.
	if e.now < until && until != MaxTime && e.pending == 0 {
		e.now = until
	}
	return e.now
}

// --- far-future fallback: 4-ary min-heap on (at, seq) ---
//
// Only events beyond the wheel horizon (or behind its base) land here, so
// the heap is almost always tiny; its root is compared against the wheel
// minimum at every pop, which keeps the global (time, seq) order exact.

func eventLess(a, b *Node) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (e *Engine) farPush(ev *Node) {
	ev.loc = locFar
	e.farPushes++
	e.far = append(e.far, ev)
	e.siftUp(len(e.far)-1, ev)
}

// farRemove deletes the far event at index i, restoring heap order.
func (e *Engine) farRemove(i int) {
	q := e.far
	n := len(q) - 1
	last := q[n]
	q[n] = nil
	e.far = q[:n]
	if i == n {
		return
	}
	if i > 0 && eventLess(last, q[(i-1)>>2]) {
		e.siftUp(i, last)
	} else {
		e.siftDown(i, last)
	}
}

// siftUp places ev at index i or above. The slot at i is treated as a hole:
// ev is only written once its final position is known.
func (e *Engine) siftUp(i int, ev *Node) {
	q := e.far
	for i > 0 {
		parent := (i - 1) >> 2
		pe := q[parent]
		if !eventLess(ev, pe) {
			break
		}
		q[i] = pe
		pe.slot = int32(i)
		i = parent
	}
	q[i] = ev
	ev.slot = int32(i)
}

// siftDown places ev at index i or below.
func (e *Engine) siftDown(i int, ev *Node) {
	q := e.far
	n := len(q)
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		// Find the smallest of up to four children.
		m := c
		best := q[c]
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if eventLess(q[j], best) {
				m, best = j, q[j]
			}
		}
		if !eventLess(best, ev) {
			break
		}
		q[i] = best
		best.slot = int32(i)
		i = m
	}
	q[i] = ev
	ev.slot = int32(i)
}

// Ticker invokes fn every period for the life of the engine. It is the
// building block for the DRE decay timer and the flowlet age sweep.
type Ticker struct {
	engine *Engine
	period Time
	fn     Event
	tickFn Event // bound once so rescheduling does not allocate
}

// NewTicker schedules fn to run every period, with the first invocation one
// full period from now. A non-positive period panics.
func NewTicker(e *Engine, period Time, fn Event) *Ticker {
	if period <= 0 {
		panic(fmt.Sprintf("sim: ticker period %v must be positive", period))
	}
	t := &Ticker{engine: e, period: period, fn: fn}
	t.tickFn = t.tick
	e.AtDaemon(e.now+period, t.tickFn)
	return t
}

func (t *Ticker) tick(now Time) {
	t.fn(now)
	t.engine.AtDaemon(now+t.period, t.tickFn)
}
