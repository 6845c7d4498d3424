package fabric

import (
	"fmt"

	"conga/internal/sim"
)

// EnableCheck turns on the run audit (ROADMAP item 2(a)). From then on every
// flowlet sweep, a safe point that already visits each leaf, also audits the
// swept leaves' flowlet tables (core.FlowletTable.Check), the output queues
// of the links the domain transmits on (Link.checkQueue) and the packet
// conservation of the domain's host NICs (Host.checkConserved); the first
// failure on each domain is kept for CheckErr. Call it before the run
// starts. With the audit off the sweep pays one nil check and a packet pays
// nothing.
func (n *Network) EnableCheck() { n.checkErrs = make([]error, n.domains) }

// checkSweep audits domain d right after its sweep at now.
func (n *Network) checkSweep(d int, now sim.Time) {
	if n.checkErrs[d] != nil {
		return
	}
	for _, leaf := range n.domLeafIdx[d] {
		fc, ok := n.Leaves[leaf].strategy.(flowletCarrier)
		if !ok {
			continue
		}
		if err := fc.FlowletTable().Check(); err != nil {
			n.checkErrs[d] = fmt.Errorf("check: leaf %d at %v: %w", leaf, now, err)
			return
		}
	}
	n.eachLink(func(l *Link) {
		if l.dom == d && n.checkErrs[d] == nil {
			if err := l.checkQueue(now); err != nil {
				n.checkErrs[d] = fmt.Errorf("check: link %s at %v: %w", l.Name, now, err)
			}
		}
	})
	if n.checkErrs[d] != nil {
		return
	}
	for _, leaf := range n.domLeafIdx[d] {
		ls := n.Leaves[leaf]
		for _, h := range n.Hosts[ls.firstHost : ls.firstHost+len(ls.downlinks)] {
			if err := h.checkConserved(); err != nil {
				n.checkErrs[d] = fmt.Errorf("check: host %d at %v: %w", h.ID, now, err)
				return
			}
		}
	}
}

// checkConserved audits packet conservation at the host's NIC: every packet
// the host sent was started on its access link, dropped there, or is queued
// there as a frame. A packet SetUp(false) killed on the wire counts both as
// started and as dropped, so it is taken out once.
func (h *Host) checkConserved() error {
	l := h.out
	queued := l.queued()
	if got := l.txPackets - l.killed + l.Drops + uint64(queued); got != h.TxPackets {
		return fmt.Errorf("packet conservation: sent %d packets, but NIC %s accounts for %d (%d started, %d killed on the wire, %d dropped, %d queued)",
			h.TxPackets, l.Name, got, l.txPackets, l.killed, l.Drops, queued)
	}
	return nil
}

// checkQueue audits the link's output queue between two events at now: the
// queued frames' wire sizes sum to qlen, which stays within the buffer; a
// non-empty queue waits on an armed drain behind a claim that still holds;
// no queued packet has an event pending; and each super-packet's frame
// groups account for its frames (Link.frames). The error names the
// invariant.
func (l *Link) checkQueue(now sim.Time) error {
	queued, bytes := 0, 0
	for n := l.queue.Head(); n != nil; n = n.Next() {
		p := nodePacket(n)
		if n.Pending() {
			return fmt.Errorf("queued packet of flow %d after %d frames has its event pending", p.FlowID, queued)
		}
		k, b, err := l.frames(p)
		if err != nil {
			return err
		}
		queued += k
		bytes += b
	}
	switch {
	case bytes != l.qlen:
		return fmt.Errorf("%d queued frames sum to %d wire bytes, qlen says %d", queued, bytes, l.qlen)
	case l.qlen > l.maxQ:
		return fmt.Errorf("qlen %d exceeds the %d-byte buffer", l.qlen, l.maxQ)
	case queued > 0 && !l.drainEv.Pending():
		return fmt.Errorf("%d frames queued with no drain armed", queued)
	case queued > 0 && !l.claimed(now):
		return fmt.Errorf("%d frames queued behind an expired claim", queued)
	}
	return nil
}

// frames returns how many frames the queued packet p holds and their wire
// bytes: one for a plain packet; for a super-packet, its payload cut into
// seg-byte frames and a short last one, which its frame groups must hold
// exactly, each group at least one frame and the first naming the last.
func (l *Link) frames(p *Packet) (k, bytes int, err error) {
	if p.train == 0 {
		return 1, l.wireSize(p), nil
	}
	gs := l.pool.groups
	if int(p.train) > len(gs) {
		return 0, 0, fmt.Errorf("super-packet of flow %d names frame group %d of %d", p.FlowID, p.train, len(gs))
	}
	first := gs[p.train-1]
	if first.seg <= 0 || p.Payload <= 0 {
		return 0, 0, fmt.Errorf("super-packet of flow %d holds %d payload bytes in %d-byte frames", p.FlowID, p.Payload, first.seg)
	}
	k = int((p.Payload + first.seg - 1) / first.seg)
	full, short := Packet{Payload: first.seg}, Packet{Payload: p.Payload - int32(k-1)*first.seg}
	bytes = (k-1)*l.wireSize(&full) + l.wireSize(&short)
	held, last := 0, uint32(0)
	for i := p.train; i != 0 && held <= k; i = gs[i-1].next {
		if int(i) > len(gs) || gs[i-1].n <= 0 {
			return 0, 0, fmt.Errorf("super-packet of flow %d has a frame group without frames", p.FlowID)
		}
		held += int(gs[i-1].n)
		last = i
	}
	switch {
	case held != k:
		return 0, 0, fmt.Errorf("super-packet of flow %d holds %d frames, its frame groups %d", p.FlowID, k, held)
	case last != first.last:
		return 0, 0, fmt.Errorf("super-packet of flow %d names frame group %d its last, which is %d", p.FlowID, first.last, last)
	}
	return k, bytes, nil
}

// CheckErr returns the first failure the sweep audit found, in domain
// order, or nil when it found none or is off.
func (n *Network) CheckErr() error {
	for _, err := range n.checkErrs {
		if err != nil {
			return err
		}
	}
	return nil
}

// CheckDrained audits a network whose run has drained, with no live event
// left on any engine: every pooled packet is back on a pool; no link holds a
// queued packet, an armed drain or a pending arrival, nor any mailbox a
// packet in transit; and every packet that entered the fabric left it —
// the hosts' sends and the leaves' control packets equal the hosts'
// receptions, the control packets terminated at TEPs, the links' drops and
// the switches' routing drops. It returns an error naming the first
// invariant that fails and the link it failed on.
func (n *Network) CheckDrained() error {
	var allocs, free uint64
	for _, pp := range n.pools {
		allocs += pp.Allocs
		free += pp.freeCount()
	}
	if free != allocs {
		return fmt.Errorf("check: %d of %d pooled packets are not back on a pool at drain", allocs-free, allocs)
	}
	for _, pp := range n.pools {
		if free := pp.freeGroupCount(); free != len(pp.groups) {
			return fmt.Errorf("check: %d of %d frame groups are not back on a pool at drain", len(pp.groups)-free, len(pp.groups))
		}
	}
	var err error
	n.eachLink(func(l *Link) {
		switch {
		case err != nil:
		case l.queue.Head() != nil:
			err = fmt.Errorf("check: link %s still queues %d frames at drain", l.Name, l.queued())
		case l.drainEv.Pending():
			err = fmt.Errorf("check: link %s still has its drain pending at drain", l.Name)
		case l.wire != nil && l.wire.link == l && l.wire.ev.Pending():
			err = fmt.Errorf("check: link %s still has an arrival pending at drain", l.Name)
		}
	})
	if err != nil {
		return err
	}
	for s, row := range n.mail {
		for d, mb := range row {
			if mb != nil && len(mb.entries) > 0 {
				return fmt.Errorf("check: mailbox %d→%d still holds %d packets at drain", s, d, len(mb.entries))
			}
		}
	}
	var sent, recv, drops, noRoute uint64
	for _, h := range n.Hosts {
		sent += h.TxPackets
		recv += h.RxPackets
	}
	for _, ls := range n.Leaves {
		noRoute += ls.NoRouteDrops
	}
	for _, ss := range n.Spines {
		noRoute += ss.NoRouteDrops
	}
	n.eachLink(func(l *Link) { drops += l.Drops })
	if out := recv + drops + noRoute; sent != out {
		return fmt.Errorf("check: packet conservation: %d packets entered the fabric (sent by hosts) but %d left it (%d received by hosts, %d dropped on links, %d without a route)",
			sent, out, recv, drops, noRoute)
	}
	return nil
}

// queued, freeCount and freeGroupCount walk a link's queue (counting
// frames), a pool's free list and its free frame groups: none keeps a count
// of its own, so no counter rides the packet path for the audits and tests
// that want one.
func (l *Link) queued() int {
	k := 0
	for n := l.queue.Head(); n != nil; n = n.Next() {
		f, _, _ := l.frames(nodePacket(n))
		k += f
	}
	return k
}

func (pp *PacketPool) freeCount() uint64 {
	var k uint64
	for n := pp.free.Head(); n != nil; n = n.Next() {
		k++
	}
	return k
}

func (pp *PacketPool) freeGroupCount() int {
	k := 0
	for i := pp.freeGroups; i != 0 && k <= len(pp.groups); i = pp.groups[i-1].next {
		k++
	}
	return k
}
