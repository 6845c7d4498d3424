package fabric

import (
	"fmt"

	"conga/internal/sim"
)

// EnableCheck turns on the run audit (ROADMAP item 2(a)). From then on every
// flowlet sweep, a safe point that already visits each leaf, also audits the
// swept leaves' flowlet tables (core.FlowletTable.Check) and the output
// queues of the links the domain transmits on (Link.checkQueue); the first
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
}

// checkQueue audits the link's output queue between two events at now: the
// queued packets' wire sizes sum to qlen, which stays within the buffer; a
// non-empty queue waits on an armed drain behind a claim that still holds;
// and no queued packet has an event pending. The error names the invariant.
func (l *Link) checkQueue(now sim.Time) error {
	queued, bytes := 0, 0
	for n := l.queue.Head(); n != nil; n = n.Next() {
		p := nodePacket(n)
		if n.Pending() {
			return fmt.Errorf("queued packet %d of flow %d has its event pending", queued, p.FlowID)
		}
		queued++
		bytes += l.wireSize(p)
	}
	switch {
	case bytes != l.qlen:
		return fmt.Errorf("%d queued packets sum to %d wire bytes, qlen says %d", queued, bytes, l.qlen)
	case l.qlen > l.maxQ:
		return fmt.Errorf("qlen %d exceeds the %d-byte buffer", l.qlen, l.maxQ)
	case queued > 0 && !l.drainEv.Pending():
		return fmt.Errorf("%d packets queued with no drain armed", queued)
	case queued > 0 && !l.claimed(now):
		return fmt.Errorf("%d packets queued behind an expired claim", queued)
	}
	return nil
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
// left on any engine: every pooled packet is back on a pool, and no link
// holds a queued packet, an armed drain or a pending arrival, nor any
// mailbox a packet in transit. It returns an error naming the first
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
	var err error
	n.eachLink(func(l *Link) {
		switch {
		case err != nil:
		case l.queue.Head() != nil:
			err = fmt.Errorf("check: link %s still queues %d packets at drain", l.Name, l.queued())
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
	return nil
}

// queued and freeCount walk a link's queue and a pool's free list: neither
// keeps a count of its own, so no counter rides the packet path for the
// audits and tests that want one.
func (l *Link) queued() int {
	k := 0
	for n := l.queue.Head(); n != nil; n = n.Next() {
		k++
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
