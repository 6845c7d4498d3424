package fabric

import (
	"fmt"

	"conga/internal/core"
	"conga/internal/sim"
	"conga/internal/telemetry"
)

// Config describes a Leaf-Spine fabric. Zero fields take the defaults of
// the paper's testbed topology (Figure 7a): 2 leaves × 2 spines with 2
// parallel 40 Gbps links each, 32 hosts per leaf on 10 Gbps access links —
// a 2:1 oversubscription.
type Config struct {
	NumLeaves     int
	NumSpines     int
	HostsPerLeaf  int
	LinksPerSpine int // parallel links between each leaf-spine pair (LAG)

	AccessRateBps float64
	FabricRateBps float64

	AccessPropDelay sim.Time
	FabricPropDelay sim.Time

	// EdgeBufBytes bounds each leaf→host access-port queue and
	// FabricBufBytes each fabric-port queue; both mimic the per-port
	// share of a shared-buffer ASIC. HostBufBytes bounds the host→leaf
	// NIC queue; it defaults large because a real sender's qdisc
	// backpressures the stack instead of dropping its own packets.
	EdgeBufBytes   int
	FabricBufBytes int
	HostBufBytes   int

	// LinkRates overrides the rate of single fabric links (both
	// directions); every other link runs at FabricRateBps. This is how the
	// §2.4 capacity-asymmetry scenarios (Figures 2 and 3) are modelled.
	LinkRates []LinkRate

	Scheme Scheme
	Params core.Params // zero value → core.DefaultParams (or CongaFlowParams for SchemeCONGAFlow)

	Seed uint64

	// Telemetry, when non-nil, wires the registry's probes through the
	// fabric: per-link counters and trace hooks, and series sampled on the
	// existing DRE-decay and flowlet-sweep tickers (no extra events are
	// scheduled, so the executed-event count is identical with telemetry
	// on or off). The registry must be private to this network's engine.
	Telemetry *telemetry.Registry
}

// LinkRate sets the rate of parallel link K between Leaf and Spine.
type LinkRate struct {
	Leaf, Spine, K int
	Gbps           float64
}

// vni is the VXLAN network identifier every leaf stamps into the overlay
// header: the simulated fabric carries one tenant.
const vni = 1

// WithDefaults returns cfg with unset fields filled in.
func (cfg Config) WithDefaults() Config {
	if cfg.NumLeaves == 0 {
		cfg.NumLeaves = 2
	}
	if cfg.NumSpines == 0 {
		cfg.NumSpines = 2
	}
	if cfg.HostsPerLeaf == 0 {
		cfg.HostsPerLeaf = 32
	}
	if cfg.LinksPerSpine == 0 {
		cfg.LinksPerSpine = 2
	}
	if cfg.AccessRateBps == 0 {
		cfg.AccessRateBps = 10e9
	}
	if cfg.FabricRateBps == 0 {
		cfg.FabricRateBps = 40e9
	}
	if cfg.AccessPropDelay == 0 {
		cfg.AccessPropDelay = 2 * sim.Microsecond
	}
	if cfg.FabricPropDelay == 0 {
		cfg.FabricPropDelay = sim.Microsecond
	}
	if cfg.EdgeBufBytes == 0 {
		// A hot access port on a shared-buffer leaf ASIC can claim a
		// large share of the chip's ~12 MB.
		cfg.EdgeBufBytes = 6 << 20
	}
	if cfg.FabricBufBytes == 0 {
		cfg.FabricBufBytes = 8 << 20 // 8 MB per fabric port
	}
	if cfg.HostBufBytes == 0 {
		// ≈ Linux pfifo_fast (1000 × MTU) plus driver ring: senders can
		// overrun their own NIC in slow start, and SACK recovery handles
		// it, as on real hosts.
		cfg.HostBufBytes = 2 << 20
	}
	if cfg.Params == (core.Params{}) {
		if cfg.Scheme == SchemeCONGAFlow {
			cfg.Params = core.CongaFlowParams()
		} else {
			cfg.Params = core.DefaultParams()
		}
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return cfg
}

// Validate reports the first configuration error.
func (cfg Config) Validate() error {
	c := cfg.WithDefaults()
	switch {
	case c.NumLeaves < 2:
		return fmt.Errorf("fabric: need at least 2 leaves, have %d", c.NumLeaves)
	case c.NumSpines < 1:
		return fmt.Errorf("fabric: need at least 1 spine, have %d", c.NumSpines)
	case c.HostsPerLeaf < 1:
		return fmt.Errorf("fabric: need at least 1 host per leaf, have %d", c.HostsPerLeaf)
	case c.LinksPerSpine < 1:
		return fmt.Errorf("fabric: need at least 1 link per leaf-spine pair, have %d", c.LinksPerSpine)
	case !(c.AccessRateBps > 0):
		return fmt.Errorf("fabric: AccessRateBps %v must be positive", c.AccessRateBps)
	case !(c.FabricRateBps > 0):
		return fmt.Errorf("fabric: FabricRateBps %v must be positive", c.FabricRateBps)
	case c.EdgeBufBytes < 0 || c.FabricBufBytes < 0 || c.HostBufBytes < 0:
		return fmt.Errorf("fabric: buffer sizes (edge %d, fabric %d, host %d bytes) must not be negative",
			c.EdgeBufBytes, c.FabricBufBytes, c.HostBufBytes)
	case c.NumSpines*c.LinksPerSpine > core.MaxUplinks:
		return fmt.Errorf("fabric: %d uplinks per leaf exceeds LBTag space %d",
			c.NumSpines*c.LinksPerSpine, core.MaxUplinks)
	case c.FabricPropDelay <= 0:
		// Zero lookahead would serialize (or deadlock) the space-parallel
		// engine, whose window size is exactly this delay.
		return fmt.Errorf("fabric: FabricPropDelay %v must be positive (it is the parallel-mode lookahead)",
			c.FabricPropDelay)
	case c.AccessPropDelay <= 0:
		return fmt.Errorf("fabric: AccessPropDelay %v must be positive", c.AccessPropDelay)
	}
	if _, ok := schemeNames[c.Scheme]; !ok {
		return fmt.Errorf("fabric: unknown scheme %v", c.Scheme)
	}
	for i, r := range c.LinkRates {
		switch {
		case r.Leaf < 0 || r.Leaf >= c.NumLeaves || r.Spine < 0 || r.Spine >= c.NumSpines || r.K < 0 || r.K >= c.LinksPerSpine:
			return fmt.Errorf("fabric: LinkRates[%d] = (leaf %d, spine %d, k %d) names no link of a %d-leaf, %d-spine fabric with %d links per pair",
				i, r.Leaf, r.Spine, r.K, c.NumLeaves, c.NumSpines, c.LinksPerSpine)
		case !(r.Gbps > 0):
			return fmt.Errorf("fabric: LinkRates[%d] = %v Gbps must be positive", i, r.Gbps)
		}
	}
	return c.Params.Validate()
}

// LinkBps returns the configured rate of parallel link k between leaf and
// spine: the last LinkRates entry naming it, else FabricRateBps.
func (cfg Config) LinkBps(leaf, spine, k int) float64 {
	rate := cfg.FabricRateBps
	for _, r := range cfg.LinkRates {
		if r.Leaf == leaf && r.Spine == spine && r.K == k {
			rate = r.Gbps * 1e9
		}
	}
	return rate
}

// Network is a wired Leaf-Spine fabric attached to a simulation engine.
type Network struct {
	Engine *sim.Engine
	Cfg    Config

	Hosts  []*Host
	Leaves []*LeafSwitch
	Spines []*SpineSwitch

	fabricLinks []*Link
	hostLeaf    []int32 // host ID → leaf ID, flat so HostLeaf is one load
	rng         *sim.Rand
	pool        *PacketPool // pools[0]; the only pool when sequential

	// linkGen is the link-state generation: every fabric link's SetUp
	// bumps it, and each leaf's PathUsable rows are valid only for the
	// generation they were computed under. It starts at 1 so a zeroed row
	// is stale.
	linkGen uint64

	// Space-parallel partition state (see partition.go). A network built by
	// NewNetwork has one domain: engines = [Engine], pools = [pool], no
	// mailboxes. dreActive[d] lists domain d's fabric links with a nonzero
	// DRE register (that domain's decay dirty-list); domLeafIdx[d] lists
	// the leaves domain d owns, for its flowlet sweep and audit.
	domains    int
	engines    []*sim.Engine
	pools      []*PacketPool
	dreActive  [][]*Link
	domLeafIdx [][]int
	mail       [][]*mailbox // mail[src][dst]; nil diagonal; nil when sequential
	deliv      []*deliverer // per-domain engine + merge scratch for Exchange; nil when sequential

	// Telemetry series, parallel to fabricLinks / Leaves; all nil when
	// telemetry is off, which it always is on several domains. Samples are
	// taken inside the existing ticker callbacks (see NewNetwork) so
	// telemetry adds no events; each ticker's series share one sampling
	// clock.
	tel         *telemetry.Registry
	telLinkClk  *telemetry.SeriesGroup // clock of telQueue and telDRE (DRE ticker)
	telLeafClk  *telemetry.SeriesGroup // clock of telFlowlet and telTbl (flowlet ticker)
	telQueue    []*telemetry.Series    // queue depth per fabric link
	telDRE      []*telemetry.Series    // DRE register per fabric link
	telFlowlet  []*telemetry.Series    // live flowlet entries per leaf (nil entry: no table)
	telFlTables []*core.FlowletTable   // table behind telFlowlet[i]
	telTbl      [][]*telemetry.Series  // CongestionToLeaf max metric per leaf per uplink
	telLeafCore []*core.Leaf           // CONGA state behind telTbl[i]
	telStale    []*telemetry.Series    // feedback staleness per leaf (nil entry: no hooks)
	telHooks    []*telemetry.DecisionHooks

	// checkErrs, non-nil once EnableCheck ran, holds each domain's first
	// audit failure (see check.go).
	checkErrs []error
}

// noteDREActive is each fabric link's dreNotify hook: it runs on the first
// transmission after the link's register drained to zero, in the link's
// owning domain (transmission is domain-local).
func (n *Network) noteDREActive(l *Link) { n.dreActive[l.dom] = append(n.dreActive[l.dom], l) }

// NewNetwork builds the fabric described by cfg on the given engine and
// starts the DRE decay and flowlet sweep tickers. It is the single-domain
// case of NewPartitionedNetwork (see partition.go).
func NewNetwork(eng *sim.Engine, cfg Config) (*Network, error) {
	return NewPartitionedNetwork([]*sim.Engine{eng}, cfg)
}

// flowletCarrier is implemented by strategies that keep a flowlet table
// (CONGA, CONGA-Flow, local); congaCarrier by those with full CONGA state.
// Optional interfaces keep Strategy itself unchanged for implementers.
type flowletCarrier interface{ FlowletTable() *core.FlowletTable }
type congaCarrier interface{ Core() *core.Leaf }

// wireTelemetry attaches the registry's hooks to every link and host and
// registers the series probes and counter collectors. It must run before
// the simulation starts; it never runs during one.
func (n *Network) wireTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	n.tel = reg
	tr := reg.Trace()
	n.eachLink(func(l *Link) {
		l.tel = reg.Link(l.Name)
		l.trace = tr
	})
	// Dequeues is pulled, not pushed: it is the link's as-of-now tx
	// count, so the hot path bumps one counter, not two. The
	// same walk totals how the links' starts were made — by a drain after
	// queueing behind a claim, or (the rest) from an idle link — the first
	// entries of the registry's engine group, followed by what the event
	// queues and the packet pools did, summed over domains.
	reg.AddCollector(func() {
		var started, drained uint64
		n.eachLink(func(l *Link) {
			l.tel.Dequeues = l.TxPackets()
			started += l.txPackets
			drained += l.drained
		})
		reg.RecordEngine("link_starts", started)
		reg.RecordEngine("link_starts_drained", drained)
		var cascades, requeued, farPushes, allocs, recycled uint64
		for d, eng := range n.engines {
			cascades += eng.Cascades()
			requeued += eng.Requeued()
			farPushes += eng.FarPushes()
			allocs += n.pools[d].Allocs
			recycled += n.pools[d].Recycled
		}
		reg.RecordEngine("cascades", cascades)
		reg.RecordEngine("requeued", requeued)
		reg.RecordEngine("far_pushes", farPushes)
		reg.RecordEngine("packet_allocs", allocs)
		reg.RecordEngine("packet_recycled", recycled)
	})
	for _, h := range n.Hosts {
		h.tcpTel = reg.TCP()
		h.trace = tr
		h.traceName = fmt.Sprintf("h%d", h.ID)
	}

	n.telLinkClk, n.telLeafClk = reg.NewSeriesGroup(), reg.NewSeriesGroup()
	n.telQueue = make([]*telemetry.Series, len(n.fabricLinks))
	n.telDRE = make([]*telemetry.Series, len(n.fabricLinks))
	for i, l := range n.fabricLinks {
		n.telQueue[i] = n.telLinkClk.NewSeries("queue."+l.Name, "bytes")
		n.telDRE[i] = n.telLinkClk.NewSeries("dre."+l.Name, "bytes")
	}
	n.telFlowlet = make([]*telemetry.Series, len(n.Leaves))
	n.telFlTables = make([]*core.FlowletTable, len(n.Leaves))
	n.telTbl = make([][]*telemetry.Series, len(n.Leaves))
	n.telLeafCore = make([]*core.Leaf, len(n.Leaves))
	n.telStale = make([]*telemetry.Series, len(n.Leaves))
	n.telHooks = make([]*telemetry.DecisionHooks, len(n.Leaves))
	for i, ls := range n.Leaves {
		fc, ok := ls.strategy.(flowletCarrier)
		if !ok {
			continue
		}
		leafID, table := ls.ID, fc.FlowletTable()
		reg.AddCollector(func() {
			reg.RecordFlowlets(leafID, table.Installs, table.Expired, table.Evicts)
		})
		n.telFlowlet[i] = n.telLeafClk.NewSeries(fmt.Sprintf("flowlets.leaf%d", leafID), "entries")
		n.telFlTables[i] = table
		cc, ok := ls.strategy.(congaCarrier)
		if !ok {
			continue
		}
		cl := cc.Core()
		if h := reg.Decisions(leafID, len(ls.uplinks), len(n.Leaves)); h != nil {
			cl.Hooks = h
			ls.decisions = h
			n.telStale[i] = reg.NewSeries(fmt.Sprintf("staleness.leaf%d", leafID), "ns")
			n.telHooks[i] = h
		}
		row := make([]*telemetry.Series, len(ls.uplinks))
		for u := range row {
			row[u] = n.telLeafClk.NewSeries(fmt.Sprintf("congtbl.leaf%d.up%d", leafID, u), "metric")
		}
		n.telTbl[i] = row
		n.telLeafCore[i] = cl
	}
}

// sampleLinkSeries records queue depth and DRE register for every fabric
// link on the ticks their clock keeps; called from the DRE-decay ticker when
// telemetry is on.
func (n *Network) sampleLinkSeries(now sim.Time) {
	if !n.telLinkClk.Sample(now) {
		return
	}
	for i, l := range n.fabricLinks {
		n.telQueue[i].Put(float64(l.qlen))
		n.telDRE[i].Put(l.dre.X())
	}
}

// sampleStaleness drains each leaf's feedback-staleness window into its
// series: the mean age of the winning remote metric over the
// congestion-aware decisions since the previous sample. Called from the
// DRE-decay ticker (the same safe point that samples link series);
// windows with no aged decisions leave a gap instead of fabricating a zero.
func (n *Network) sampleStaleness(now sim.Time) {
	for i, h := range n.telHooks {
		if h == nil {
			continue
		}
		if mean, ok := h.TakeStaleness(); ok {
			n.telStale[i].Observe(now, mean)
		}
	}
}

// sampleLeafSeries records flowlet-table occupancy and per-uplink
// CongestionToLeaf max metrics for every leaf on the ticks their clock
// keeps; called from the flowlet-sweep ticker.
func (n *Network) sampleLeafSeries(now sim.Time) {
	if !n.telLeafClk.Sample(now) {
		return
	}
	for i, s := range n.telFlowlet {
		if s != nil {
			s.Put(float64(n.telFlTables[i].Live()))
		}
		if row := n.telTbl[i]; row != nil {
			cl := n.telLeafCore[i]
			for u, su := range row {
				su.Put(float64(cl.ToLeaf.MaxMetric(u, now)))
			}
		}
	}
}

// MustNetwork is NewNetwork for tests and examples where a config error is
// a programming bug.
func MustNetwork(eng *sim.Engine, cfg Config) *Network {
	n, err := NewNetwork(eng, cfg)
	if err != nil {
		panic(err)
	}
	return n
}

func (n *Network) newStrategy(ls *LeafSwitch) Strategy {
	rng := n.rng.Split()
	switch scheme := n.Cfg.Scheme; scheme {
	case SchemeECMP:
		return &ecmpStrategy{ls: ls}
	case SchemeCONGA:
		return newCongaStrategy(ls, "conga", n.Cfg.Params, rng)
	case SchemeCONGAFlow:
		return newCongaStrategy(ls, "conga-flow", n.Cfg.Params, rng)
	case SchemeLocal:
		return newLocalStrategy(ls, n.Cfg.Params, rng)
	case SchemeSpray:
		return &sprayStrategy{ls: ls}
	case SchemeWCMP:
		return newWCMPStrategy(ls)
	default:
		// Config.Validate has checked Scheme.
		panic(fmt.Sprintf("fabric: no strategy for scheme %v of leaf %d", scheme, ls.ID))
	}
}

// NumLeaves returns the leaf count.
func (n *Network) NumLeaves() int { return len(n.Leaves) }

// HostLeaf returns the leaf a host attaches to.
func (n *Network) HostLeaf(host int) int { return int(n.hostLeaf[host]) }

// Host returns host i.
func (n *Network) Host(i int) *Host { return n.Hosts[i] }

// FabricLinks returns every leaf↔spine link, for stats collection.
func (n *Network) FabricLinks() []*Link { return n.fabricLinks }

// FailLink takes down both directions of parallel link k between leaf and
// spine, like unplugging a cable. It panics on out-of-range arguments — a
// mis-specified failure would silently invalidate an experiment.
func (n *Network) FailLink(leaf, spine, k int) {
	up, down := n.linkPair(leaf, spine, k)
	up.SetUp(false)
	down.SetUp(false)
}

// RestoreLink re-enables both directions of the given link.
func (n *Network) RestoreLink(leaf, spine, k int) {
	up, down := n.linkPair(leaf, spine, k)
	up.SetUp(true)
	down.SetUp(true)
}

// HasLink reports whether the fabric has a parallel link k between leaf and
// spine: the arguments FailLink and RestoreLink accept.
func (n *Network) HasLink(leaf, spine, k int) bool {
	return leaf >= 0 && leaf < len(n.Leaves) && spine >= 0 && spine < len(n.Spines) &&
		k >= 0 && k < n.Cfg.LinksPerSpine
}

func (n *Network) linkPair(leaf, spine, k int) (up, down *Link) {
	if !n.HasLink(leaf, spine, k) {
		panic(fmt.Sprintf("fabric: no link (leaf=%d, spine=%d, k=%d)", leaf, spine, k))
	}
	uplinkIdx := spine*n.Cfg.LinksPerSpine + k
	return n.Leaves[leaf].uplinks[uplinkIdx], n.Spines[spine].down[leaf][k]
}

// eachLink visits every link of the fabric: leaf↔spine links, host uplinks
// and leaf→host downlinks.
func (n *Network) eachLink(fn func(*Link)) {
	for _, l := range n.fabricLinks {
		fn(l)
	}
	for _, h := range n.Hosts {
		fn(h.out)
	}
	for _, ls := range n.Leaves {
		for _, l := range ls.downlinks {
			fn(l)
		}
	}
}

// TotalDrops sums packet drops over every link in the fabric, including
// access links.
func (n *Network) TotalDrops() uint64 {
	var d uint64
	n.eachLink(func(l *Link) { d += l.Drops })
	for _, ls := range n.Leaves {
		d += ls.NoRouteDrops
	}
	for _, ss := range n.Spines {
		d += ss.NoRouteDrops
	}
	return d
}
