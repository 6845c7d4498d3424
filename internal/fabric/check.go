package fabric

import (
	"fmt"

	"conga/internal/sim"
)

// EnableCheck turns on the run audit (ROADMAP item 2(a)). From then on every
// flowlet sweep, a safe point that already visits each leaf, also audits the
// swept leaves' flowlet tables (core.FlowletTable.Check); the first failure
// on each domain is kept for CheckErr. Call it before the run starts. With
// the audit off the sweep pays one nil check and a packet pays nothing.
func (n *Network) EnableCheck() { n.checkErrs = make([]error, n.domains) }

// checkFlowlets audits domain d's leaves right after their sweep at now.
func (n *Network) checkFlowlets(d int, now sim.Time) {
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
		free += uint64(len(pp.free))
	}
	if free != allocs {
		return fmt.Errorf("check: %d of %d pooled packets are not back on a pool at drain", allocs-free, allocs)
	}
	var err error
	n.eachLink(func(l *Link) {
		switch {
		case err != nil:
		case l.qhead < len(l.queue):
			err = fmt.Errorf("check: link %s still queues %d packets at drain", l.Name, len(l.queue)-l.qhead)
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
