package fabric

import (
	"conga/internal/core"
	"conga/internal/sim"
	"conga/internal/telemetry"
)

// LeafSwitch is a top-of-rack switch and overlay tunnel endpoint (TEP). On
// the way up it encapsulates host packets, runs the load-balancing strategy
// to pick an uplink, and stamps the CONGA header; on the way down it hands
// the header to the strategy (feedback + CE observation) and decapsulates.
// Local (intra-rack) traffic never enters the fabric, as in the paper's
// overlay.
type LeafSwitch struct {
	ID  int
	net *Network

	uplinks     []*Link // index = LBTag
	uplinkSpine []int   // spine ID per uplink
	downlinks   []*Link // per local host, indexed by host ID − firstHost
	firstHost   int     // ID of the first local host; hosts are numbered densely per leaf

	strategy Strategy
	vni      uint32
	pool     *PacketPool // owning domain's pool (== net.pool when sequential)

	// Reachability cache: usable[dstLeaf*len(uplinks):][:len(uplinks)] is
	// the PathUsable row for dstLeaf, valid iff usableGen[dstLeaf] equals
	// net.linkGen (which starts at 1, so zeroed rows start out stale).
	usable    []bool
	usableGen []uint64

	// decisions feeds the decision-plane path load matrix with payload
	// bytes per (uplink, dstLeaf); nil when telemetry is off or the leaf
	// runs a non-CONGA strategy, making the hot-path site one branch.
	decisions *telemetry.DecisionHooks

	// NoRouteDrops counts packets dropped because no uplink was usable.
	NoRouteDrops uint64
	// UpPackets / DownPackets count fabric-bound and fabric-received
	// packets, for sanity checks in tests.
	UpPackets, DownPackets uint64
	// CtrlOut / CtrlIn count the control packets this TEP emitted and
	// terminated, for the drain audit's conservation balance.
	CtrlOut, CtrlIn uint64
}

// Strategy returns the leaf's load-balancing strategy.
func (ls *LeafSwitch) Strategy() Strategy { return ls.strategy }

// Uplinks returns the leaf's uplinks; index i is LBTag i.
func (ls *LeafSwitch) Uplinks() []*Link { return ls.uplinks }

// PathUsable reports, per uplink, whether a packet sent on it can reach
// dstLeaf: the uplink itself must be up and its spine must retain at least
// one live downlink to dstLeaf. This models routing convergence after a
// failure — a fabric withdraws a spine from the ECMP group of leaves it
// can no longer reach. The row is a pure function of the fabric's link
// up/down state, so it is cached per destination and recomputed only after
// some Link.SetUp moved the network's link generation. The returned slice
// is the cache row: callers must not modify it, and it is valid until the
// next SetUp.
func (ls *LeafSwitch) PathUsable(dstLeaf int) []bool {
	n := len(ls.uplinks)
	row := ls.usable[dstLeaf*n : (dstLeaf+1)*n : (dstLeaf+1)*n]
	if gen := ls.net.linkGen; ls.usableGen[dstLeaf] != gen {
		ls.usableGen[dstLeaf] = gen
		ls.computeUsable(dstLeaf, row)
	}
	return row
}

// computeUsable fills row with dstLeaf's reachability from the links'
// current state; it is the uncached definition of PathUsable.
func (ls *LeafSwitch) computeUsable(dstLeaf int, row []bool) {
	for i, l := range ls.uplinks {
		ok := l.Up()
		if ok {
			ok = false
			for _, d := range ls.net.Spines[ls.uplinkSpine[i]].Downlinks(dstLeaf) {
				if d.Up() {
					ok = true
					break
				}
			}
		}
		row[i] = ok
	}
}

// Downlink returns the link toward a local host, or nil if the host is not
// under this leaf.
func (ls *LeafSwitch) Downlink(host int) *Link {
	if i := host - ls.firstHost; uint(i) < uint(len(ls.downlinks)) {
		return ls.downlinks[i]
	}
	return nil
}

func (ls *LeafSwitch) handle(p *Packet, from *Link, now sim.Time) {
	if from != nil && from.fab {
		ls.fromFabric(p, now)
		return
	}
	ls.fromHost(p, now)
}

func (ls *LeafSwitch) fromHost(p *Packet, now sim.Time) {
	dstLeaf := ls.net.HostLeaf(p.DstHost)
	if dstLeaf == ls.ID {
		// Intra-rack: switch locally, no overlay.
		ls.Downlink(p.DstHost).Send(p, now)
		return
	}
	up := ls.strategy.SelectUplink(p, dstLeaf, now)
	if up < 0 {
		ls.NoRouteDrops++
		ls.pool.Put(p)
		return
	}
	p.SrcLeaf = int32(ls.ID)
	p.DstLeaf = int32(dstLeaf)
	ls.strategy.PrepareHeader(p, dstLeaf, up, now)
	ls.UpPackets++
	if ls.decisions != nil {
		ls.decisions.AddBytes(up, dstLeaf, int(p.Payload))
	}
	ls.uplinks[up].Send(p, now)
}

func (ls *LeafSwitch) fromFabric(p *Packet, now sim.Time) {
	ls.DownPackets++
	ls.strategy.OnFabricArrival(p, int(p.SrcLeaf), now)
	if p.Ctrl {
		// Explicit feedback terminates at the TEP.
		ls.CtrlIn++
		ls.pool.Put(p)
		return
	}
	dl := ls.Downlink(p.DstHost)
	if dl == nil {
		// Misrouted packet: the spine sent us traffic for a host we do
		// not own. Count it as a routing drop; it indicates a topology
		// wiring bug.
		ls.NoRouteDrops++
		ls.pool.Put(p)
		return
	}
	dl.Send(p, now)
}

// sendControl emits a leaf-to-leaf control packet (explicit feedback)
// toward dstLeaf on any currently usable uplink.
func (ls *LeafSwitch) sendControl(dstLeaf int, hdr core.Header, now sim.Time) {
	up := hashOverMask(ls.PathUsable(dstLeaf), uint64(now)^uint64(dstLeaf)*0x9e3779b97f4a7c15)
	if up < 0 {
		return
	}
	// The control packet is itself a fabric packet: its CE observation is
	// valid for the uplink it rides, so tag it accordingly.
	hdr.LBTag = uint8(up)
	p := ls.pool.Get()
	p.SrcLeaf = int32(ls.ID)
	p.DstLeaf = int32(dstLeaf)
	p.Ctrl = true
	p.Hdr = hdr
	p.SentAt = now
	ls.CtrlOut++
	ls.uplinks[up].Send(p, now)
}
