package fabric

import (
	"fmt"

	"conga/internal/core"
	"conga/internal/sim"
)

// Scheme identifies a leaf load-balancing strategy. These are the schemes
// compared in the paper's evaluation (§5) plus the §2.4 strawmen.
type Scheme int

const (
	// SchemeECMP hashes each flow to an uplink, with no congestion
	// awareness — the deployed state of the art the paper argues against.
	SchemeECMP Scheme = iota
	// SchemeCONGA is the paper's contribution: global congestion-aware
	// flowlet load balancing with leaf-to-leaf feedback.
	SchemeCONGA
	// SchemeCONGAFlow is CONGA with a 13 ms flowlet timeout: one
	// congestion-aware decision per flow (§5, "CONGA-Flow").
	SchemeCONGAFlow
	// SchemeLocal is a Flare-like local-only scheme: flowlet switching
	// using only the leaf's local uplink DREs. It exists to reproduce the
	// §2.4 result that local congestion-awareness can be worse than ECMP
	// under asymmetry.
	SchemeLocal
	// SchemeSpray sprays packets round-robin across up uplinks
	// (per-packet, DRB-style). Optimal balance, maximal reordering.
	SchemeSpray
	// SchemeWCMP is static weighted random per-flow splitting; weights
	// are chosen from topology (§2.4's "oblivious routing" strawman).
	SchemeWCMP
)

var schemeNames = map[Scheme]string{
	SchemeECMP:      "ecmp",
	SchemeCONGA:     "conga",
	SchemeCONGAFlow: "conga-flow",
	SchemeLocal:     "local",
	SchemeSpray:     "spray",
	SchemeWCMP:      "wcmp",
}

func (s Scheme) String() string {
	if n, ok := schemeNames[s]; ok {
		return n
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// ParseScheme converts a name (as printed by String) back to a Scheme.
func ParseScheme(name string) (Scheme, error) {
	for s, n := range schemeNames {
		if n == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("fabric: unknown scheme %q", name)
}

// Strategy is the per-leaf load-balancing policy. The leaf switch calls
// SelectUplink for every packet entering the fabric, PrepareHeader to fill
// the overlay header, and OnFabricArrival for every packet leaving it.
type Strategy interface {
	Name() string
	// SelectUplink returns the uplink index for a packet to dstLeaf, or
	// −1 if no uplink is usable.
	SelectUplink(p *Packet, dstLeaf int, now sim.Time) int
	// PrepareHeader fills p.Hdr for transmission on uplink.
	PrepareHeader(p *Packet, dstLeaf, uplink int, now sim.Time)
	// OnFabricArrival processes the overlay header of a packet for which
	// this leaf is the destination TEP.
	OnFabricArrival(p *Packet, srcLeaf int, now sim.Time)
	// Tick runs periodic housekeeping; the leaf calls it every Tfl.
	Tick(now sim.Time)
}

func flowHash(p *Packet) uint64 {
	if h := p.lbHash; h != 0 {
		return h
	}
	h := HashFlow(p.FlowID, int(p.SrcHost), p.DstHost, p.SrcPort, int(p.DstPort))
	p.lbHash = h // 0 stays uncached (recomputed), so the memo is exact
	return h
}

// HashFlow computes the load-balancing flow hash for the given packet
// identity — the exact value flowHash memoizes on packets. Transports whose
// endpoints have a fixed 5-tuple precompute it once per connection and stamp
// outgoing packets with SetLBHash, taking the hash off the fabric's
// per-packet hot path entirely.
func HashFlow(flowID uint64, srcHost, dstHost, srcPort, dstPort int) uint64 {
	return core.FlowHash(flowID, uint64(srcHost), uint64(dstHost),
		uint64(srcPort)<<16|uint64(dstPort), 6)
}

// --- ECMP ---

type ecmpStrategy struct {
	ls *LeafSwitch
}

func (s *ecmpStrategy) Name() string { return "ecmp" }

func (s *ecmpStrategy) SelectUplink(p *Packet, dstLeaf int, _ sim.Time) int {
	return hashOverMask(s.ls.PathUsable(dstLeaf), flowHash(p))
}

func (s *ecmpStrategy) PrepareHeader(p *Packet, _, uplink int, _ sim.Time) {
	p.Hdr = core.Header{VNI: s.ls.vni, LBTag: uint8(uplink)}
}

func (s *ecmpStrategy) OnFabricArrival(*Packet, int, sim.Time) {}
func (s *ecmpStrategy) Tick(sim.Time)                          {}

// hashOverUp deterministically maps hash onto the set of currently-up
// links, mirroring an ECMP group whose members are withdrawn on failure.
// It is hashOverMask inlined over the links directly: this runs once per
// packet per spine hop, so materializing a mask slice here would put an
// allocation on the packet hot path.
func hashOverUp(links []*Link, hash uint64) int {
	n := 0
	for _, l := range links {
		if l.Up() {
			n++
		}
	}
	if n == 0 {
		return -1
	}
	k := int(hash % uint64(n))
	for i, l := range links {
		if !l.Up() {
			continue
		}
		if k == 0 {
			return i
		}
		k--
	}
	return -1
}

// hashOverMask maps hash onto the set of usable members.
func hashOverMask(usable []bool, hash uint64) int {
	n := 0
	for _, ok := range usable {
		if ok {
			n++
		}
	}
	if n == 0 {
		return -1
	}
	k := int(hash % uint64(n))
	for i, ok := range usable {
		if !ok {
			continue
		}
		if k == 0 {
			return i
		}
		k--
	}
	return -1
}

// --- CONGA / CONGA-Flow ---

type congaStrategy struct {
	ls       *LeafSwitch
	leaf     *core.Leaf
	name     string
	localBuf []uint8
	// Explicit feedback (optional, §3.3 discussion): sentTo tracks which
	// leaves this leaf piggybacked feedback to since the last Tick; a
	// leaf with pending changed metrics and no reverse traffic gets a
	// small control packet instead.
	explicit bool
	sentTo   []bool
	// CtrlPackets counts explicit feedback packets emitted.
	CtrlPackets uint64
}

func newCongaStrategy(ls *LeafSwitch, name string, p core.Params, rng *sim.Rand, explicit bool) *congaStrategy {
	n := len(ls.uplinks)
	return &congaStrategy{
		ls:       ls,
		leaf:     core.NewLeaf(ls.ID, ls.net.NumLeaves(), n, p, rng),
		name:     name,
		localBuf: make([]uint8, n),
		explicit: explicit,
		sentTo:   make([]bool, ls.net.NumLeaves()),
	}
}

func (s *congaStrategy) Name() string { return s.name }

// Core returns the underlying algorithm state, for tests and diagnostics.
func (s *congaStrategy) Core() *core.Leaf { return s.leaf }

// FlowletTable exposes the leaf's flowlet table for telemetry; strategies
// without one simply don't implement the method (see Network.wireTelemetry).
func (s *congaStrategy) FlowletTable() *core.FlowletTable { return s.leaf.Flowlets }

// SelectUplink is core.Leaf.SelectUplink with the local DRE metrics
// gathered between its two halves: only the first packet of a flowlet
// reads them.
func (s *congaStrategy) SelectUplink(p *Packet, dstLeaf int, now sim.Time) int {
	hash := flowHash(p)
	usable := s.ls.PathUsable(dstLeaf)
	port, sticky := s.leaf.StickyUplink(hash, dstLeaf, usable, now)
	if sticky {
		return port
	}
	for i, l := range s.ls.uplinks {
		s.localBuf[i] = l.Metric()
	}
	return s.leaf.NewFlowletUplink(hash, dstLeaf, s.localBuf, usable, port, now)
}

func (s *congaStrategy) PrepareHeader(p *Packet, dstLeaf, uplink int, now sim.Time) {
	p.Hdr = s.leaf.PrepareHeader(dstLeaf, uplink, s.ls.vni, now)
	if s.explicit {
		s.sentTo[dstLeaf] = true
	}
}

func (s *congaStrategy) OnFabricArrival(p *Packet, srcLeaf int, now sim.Time) {
	s.leaf.OnFabricArrival(srcLeaf, p.Hdr, now)
}

func (s *congaStrategy) Tick(now sim.Time) {
	s.leaf.SweepFlowlets()
	if !s.explicit {
		return
	}
	for leaf := range s.sentTo {
		if leaf == s.ls.ID {
			continue
		}
		if !s.sentTo[leaf] && s.leaf.FromLeaf.HasChanged(leaf) {
			hdr := s.leaf.PrepareHeader(leaf, 0, s.ls.vni, now)
			s.CtrlPackets++
			s.ls.sendControl(leaf, hdr, now)
		}
		s.sentTo[leaf] = false
	}
}

// --- Local congestion-aware (Flare-like) ---

type localStrategy struct {
	ls       *LeafSwitch
	flowlets *core.FlowletTable
	rng      *sim.Rand
	localBuf []uint8
	zeros    []uint8
}

func newLocalStrategy(ls *LeafSwitch, p core.Params, rng *sim.Rand) *localStrategy {
	n := len(ls.uplinks)
	return &localStrategy{
		ls:       ls,
		flowlets: core.NewFlowletTable(p),
		rng:      rng,
		localBuf: make([]uint8, n),
		zeros:    make([]uint8, n),
	}
}

func (s *localStrategy) Name() string { return "local" }

// FlowletTable exposes the strategy's flowlet table for telemetry.
func (s *localStrategy) FlowletTable() *core.FlowletTable { return s.flowlets }

func (s *localStrategy) SelectUplink(p *Packet, dstLeaf int, now sim.Time) int {
	hash := flowHash(p)
	usable := s.ls.PathUsable(dstLeaf)
	port, active := s.flowlets.Lookup(hash, now)
	if active && port >= 0 && usable[port] {
		return port
	}
	for i, l := range s.ls.uplinks {
		s.localBuf[i] = l.Metric()
	}
	choice := core.Decide(s.localBuf, s.zeros, usable, port, s.rng)
	if choice >= 0 {
		s.flowlets.Install(hash, choice, now)
	}
	return choice
}

func (s *localStrategy) PrepareHeader(p *Packet, _, uplink int, _ sim.Time) {
	p.Hdr = core.Header{VNI: s.ls.vni, LBTag: uint8(uplink)}
}

func (s *localStrategy) OnFabricArrival(*Packet, int, sim.Time) {}
func (s *localStrategy) Tick(sim.Time)                          { s.flowlets.Sweep() }

// --- Per-packet spraying ---

type sprayStrategy struct {
	ls   *LeafSwitch
	next int
}

func (s *sprayStrategy) Name() string { return "spray" }

func (s *sprayStrategy) SelectUplink(_ *Packet, dstLeaf int, _ sim.Time) int {
	usable := s.ls.PathUsable(dstLeaf)
	n := len(s.ls.uplinks)
	for i := 0; i < n; i++ {
		idx := (s.next + i) % n
		if usable[idx] {
			s.next = idx + 1
			return idx
		}
	}
	return -1
}

func (s *sprayStrategy) PrepareHeader(p *Packet, _, uplink int, _ sim.Time) {
	p.Hdr = core.Header{VNI: s.ls.vni, LBTag: uint8(uplink)}
}

func (s *sprayStrategy) OnFabricArrival(*Packet, int, sim.Time) {}
func (s *sprayStrategy) Tick(sim.Time)                          {}

// --- Static weighted (WCMP) ---

type wcmpStrategy struct {
	ls      *LeafSwitch
	weights []float64 // per uplink, need not be normalized
}

func newWCMPStrategy(ls *LeafSwitch, weights []float64) *wcmpStrategy {
	n := len(ls.uplinks)
	w := make([]float64, n)
	if len(weights) == 0 {
		for i := range w {
			w[i] = 1
		}
	} else {
		copy(w, weights)
	}
	return &wcmpStrategy{ls: ls, weights: w}
}

func (s *wcmpStrategy) Name() string { return "wcmp" }

func (s *wcmpStrategy) SelectUplink(p *Packet, dstLeaf int, _ sim.Time) int {
	usable := s.ls.PathUsable(dstLeaf)
	total := 0.0
	for i := range s.ls.uplinks {
		if usable[i] {
			total += s.weights[i]
		}
	}
	if total <= 0 {
		return -1
	}
	// Per-flow deterministic weighted choice: map the flow hash to [0, 1)
	// and walk the weight CDF, so flows never reorder.
	u := float64(flowHash(p)>>11) / (1 << 53) * total
	for i := range s.ls.uplinks {
		if !usable[i] {
			continue
		}
		u -= s.weights[i]
		if u < 0 {
			return i
		}
	}
	// Float round-off: return the last usable link.
	for i := len(s.ls.uplinks) - 1; i >= 0; i-- {
		if usable[i] {
			return i
		}
	}
	return -1
}

func (s *wcmpStrategy) PrepareHeader(p *Packet, _, uplink int, _ sim.Time) {
	p.Hdr = core.Header{VNI: s.ls.vni, LBTag: uint8(uplink)}
}

func (s *wcmpStrategy) OnFabricArrival(*Packet, int, sim.Time) {}
func (s *wcmpStrategy) Tick(sim.Time)                          {}
