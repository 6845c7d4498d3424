package fabric

import (
	"fmt"

	"conga/internal/sim"
)

// PacketPool recycles Packet objects within one engine's fabric. The
// simulator is single-threaded per engine, so the pool needs no locking;
// parallelism across experiments uses one network (and pool) per goroutine.
//
// Ownership rule: whoever terminates a packet's journey releases it —
// the host on delivery, the link on a drop, the leaf/spine on a routing
// drop, and the destination TEP for control packets. Transports allocate
// via Host.NewPacket and must not touch a packet after handing it to Send.
// Packets constructed directly (tests, external drivers) are ignored by
// Put and stay garbage-collected, so foreign pointers are never recycled
// under their owner's feet.
//
// The free list is a LIFO threaded through the free packets' own nodes, so
// it holds no slot per packet and Get hands out the packet released last,
// the one most likely still in cache.
//
// The pool also keeps the frame groups of the domain's super-packets (see
// Link.fold): a slab indexed by a packet's train, with a free list of its
// own threaded through the free groups' next links.
type PacketPool struct {
	free       sim.Queue
	groups     []frameGroup
	freeGroups uint32 // first free group's index + 1, 0 when none

	// Allocs counts pool misses (fresh heap allocations); Recycled counts
	// Gets served from the free list. Exported via counters for tests.
	Allocs   uint64
	Recycled uint64
}

// Get returns a zeroed pool-owned packet.
func (pp *PacketPool) Get() *Packet {
	if pp == nil {
		return &Packet{}
	}
	if n := pp.free.Pop(); n != nil {
		p := nodePacket(n)
		pp.Recycled++
		p.pooled = true
		return p
	}
	pp.Allocs++
	return &Packet{pooled: true}
}

// Put releases a packet back to the pool. Packets not allocated by Get
// (or already released) are left alone. Releasing a packet whose arrival is
// still pending would hand the engine's queue a zeroed element, so it
// panics: cancel the arrival first (Link.SetUp does).
func (pp *PacketPool) Put(p *Packet) {
	if p == nil {
		return
	}
	if p.ev.Pending() {
		panic(fmt.Sprintf("fabric: packet released while its arrival on %s is pending", p.link.Name))
	}
	if pp == nil || !p.pooled {
		return
	}
	*p = Packet{}
	pp.free.PushFront(&p.ev)
}

// frameGroup is a run of a super-packet's frames that share one send
// instant, in send order. Groups refer to each other, and a packet to its
// first, by slab index + 1, so 0 means none. seg and last are kept in the
// train's first group only.
type frameGroup struct {
	at   sim.Time // the frames' SentAt
	n    int32    // frames in the group
	seg  int32    // payload of every frame of the train but a short last one
	next uint32   // the next group
	last uint32   // the train's last group
}

// newGroup returns a group of one frame sent at at.
func (pp *PacketPool) newGroup(at sim.Time) uint32 {
	g := frameGroup{at: at, n: 1}
	if i := pp.freeGroups; i != 0 {
		pp.freeGroups = pp.groups[i-1].next
		pp.groups[i-1] = g
		return i
	}
	pp.groups = append(pp.groups, g)
	return uint32(len(pp.groups))
}

// freeGroup releases group i to the slab's free list.
func (pp *PacketPool) freeGroup(i uint32) {
	pp.groups[i-1] = frameGroup{next: pp.freeGroups}
	pp.freeGroups = i
}
