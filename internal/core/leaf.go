package core

import (
	"fmt"

	"conga/internal/sim"
	"conga/internal/telemetry"
)

// combine composes one uplink's local and remote metrics per the chosen
// path metric (saturating at 255 for the sum; wire saturation happens in
// MarkCE).
func combine(pm PathMetric, local, remote uint8) uint8 {
	if pm == PathMetricSum {
		s := int(local) + int(remote)
		if s > 255 {
			s = 255
		}
		return uint8(s)
	}
	if remote > local {
		return remote
	}
	return local
}

// MarkCE updates a packet's CE field for a traversed link with metric m,
// saturating at the header's 3-bit limit. Max mode is the paper's §3.3
// hop-by-hop maximum; sum mode is the §7 alternative.
func MarkCE(pm PathMetric, ce, m uint8) uint8 {
	if pm == PathMetricSum {
		s := int(ce) + int(m)
		if s > maxCE {
			s = maxCE
		}
		return uint8(s)
	}
	if m > ce {
		return m
	}
	return ce
}

// Decide implements the load-balancing decision logic of §3.5 for the first
// packet of a flowlet with the paper's max path metric: among allowed
// uplinks, pick the one minimizing max(localMetric, remoteMetric).
func Decide(localMetrics, remoteMetrics []uint8, allowed []bool, preferred int, rng *sim.Rand) int {
	return DecideMetric(PathMetricMax, localMetrics, remoteMetrics, allowed, preferred, rng)
}

// DecideMetric is Decide with an explicit path-metric composition. Ties
// prefer the uplink the flow's last flowlet used (preferred, −1 if none)
// so a flow only moves when a strictly better uplink exists; remaining
// ties break uniformly at random.
//
// localMetrics and remoteMetrics must have equal length; allowed may be
// nil (all uplinks usable). It returns −1 if no uplink is allowed.
func DecideMetric(pm PathMetric, localMetrics, remoteMetrics []uint8, allowed []bool, preferred int, rng *sim.Rand) int {
	if len(localMetrics) != len(remoteMetrics) {
		panic(fmt.Sprintf("core: metric slices of unequal length %d vs %d",
			len(localMetrics), len(remoteMetrics)))
	}
	best := uint8(255)
	count := 0 // number of uplinks achieving best
	for i := range localMetrics {
		if allowed != nil && !allowed[i] {
			continue
		}
		m := combine(pm, localMetrics[i], remoteMetrics[i])
		if m < best {
			best = m
			count = 1
		} else if m == best {
			count++
		}
	}
	if count == 0 {
		return -1
	}
	// Preferred uplink wins ties.
	if preferred >= 0 && preferred < len(localMetrics) && (allowed == nil || allowed[preferred]) {
		if combine(pm, localMetrics[preferred], remoteMetrics[preferred]) == best {
			return preferred
		}
	}
	// Uniform choice among the minima.
	pick := 0
	if rng != nil {
		pick = rng.Intn(count)
	}
	for i := range localMetrics {
		if allowed != nil && !allowed[i] {
			continue
		}
		if combine(pm, localMetrics[i], remoteMetrics[i]) == best {
			if pick == 0 {
				return i
			}
			pick--
		}
	}
	panic("core: unreachable: minimum disappeared")
}

// Leaf bundles the per-leaf CONGA state: the flowlet table, both congestion
// tables, and the decision RNG. It is the algorithmic content of the Leaf
// ASIC; the fabric's leaf switch owns one and additionally owns the per-
// uplink DREs (which belong to the links themselves).
type Leaf struct {
	ID     int
	Params Params

	Flowlets *FlowletTable
	ToLeaf   *CongestionToLeaf
	FromLeaf *CongestionFromLeaf

	rng        *sim.Rand
	numUplinks int
	remoteBuf  []uint8

	// Decisions counts flowlet-level LB decisions; Moves counts decisions
	// that picked a different uplink than the previous flowlet.
	Decisions, Moves uint64

	// Hooks is the decision-plane observability seam: nil when telemetry is
	// off (every SelectUplink site is then a single branch, same pattern as
	// fabric.Link and tcp.Sender hooks). Hooks never feed back into the
	// decision: they read state after the verdict and consume no engine
	// randomness.
	Hooks *telemetry.DecisionHooks

	// hookBuf holds the combined max(local, remote) candidate vector handed
	// to Hooks, computed only when Hooks is non-nil.
	hookBuf []uint8
}

// NewLeaf returns the CONGA state for leaf id in a fabric of numLeaves
// leaves where this leaf has numUplinks uplinks. It panics on invalid
// Params so misconfiguration fails loudly at construction.
func NewLeaf(id, numLeaves, numUplinks int, p Params, rng *sim.Rand) *Leaf {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if numUplinks > MaxUplinks {
		panic(fmt.Sprintf("core: %d uplinks exceeds MaxUplinks %d", numUplinks, MaxUplinks))
	}
	return &Leaf{
		ID:         id,
		Params:     p,
		Flowlets:   NewFlowletTable(p),
		ToLeaf:     NewCongestionToLeaf(numLeaves, numUplinks, p),
		FromLeaf:   NewCongestionFromLeaf(numLeaves, MaxUplinks, p),
		rng:        rng,
		numUplinks: numUplinks,
		remoteBuf:  make([]uint8, numUplinks),
	}
}

// SelectUplink makes the forwarding decision for one packet of the flow
// identified by flowHash, destined to dstLeaf. localMetrics are the current
// quantized DRE values of this leaf's uplinks, and allowed marks uplinks
// that are up (nil = all). It returns the chosen uplink and whether this
// packet started a new flowlet. A return of −1 means no uplink is usable.
//
// It is StickyUplink followed, on a miss, by NewFlowletUplink. Callers for
// whom localMetrics is expensive to gather (the fabric reads one DRE per
// uplink) call the two halves themselves and gather only on a miss — as
// the ASIC does, which consults the congestion tables for the first packet
// of a flowlet only (§3.5).
func (l *Leaf) SelectUplink(flowHash uint64, dstLeaf int, localMetrics []uint8, allowed []bool, now sim.Time) (uplink int, newFlowlet bool) {
	port, sticky := l.StickyUplink(flowHash, dstLeaf, allowed, now)
	if sticky {
		return port, false
	}
	return l.NewFlowletUplink(flowHash, dstLeaf, localMetrics, allowed, port, now), true
}

// StickyUplink is the per-packet half of the decision: the flowlet table
// lookup. If the packet continues a live flowlet whose uplink is still
// allowed it returns (that uplink, true). Otherwise it returns (prev,
// false), prev being the uplink the entry's previous flowlet used (−1 if
// none), and the caller must pass prev to NewFlowletUplink.
func (l *Leaf) StickyUplink(flowHash uint64, dstLeaf int, allowed []bool, now sim.Time) (port int, sticky bool) {
	port, active := l.Flowlets.Lookup(flowHash, now)
	if active && (allowed == nil || (port < len(allowed) && allowed[port])) {
		if l.Hooks != nil {
			l.Hooks.Decision(now, dstLeaf, port, telemetry.ReasonSticky, -1, nil)
		}
		return port, true
	}
	return port, false
}

// NewFlowletUplink is the per-flowlet half: the congestion-aware choice for
// a packet StickyUplink just missed on (prev is what it returned), which it
// installs in the flowlet table. A return of −1 means no uplink is allowed.
func (l *Leaf) NewFlowletUplink(flowHash uint64, dstLeaf int, localMetrics []uint8, allowed []bool, prev int, now sim.Time) int {
	remote := l.ToLeaf.Metrics(dstLeaf, now, l.remoteBuf)
	choice := DecideMetric(l.Params.PathMetric, localMetrics, remote, allowed, prev, l.rng)
	if choice < 0 {
		return -1
	}
	l.Decisions++
	if prev >= 0 && choice != prev {
		l.Moves++
	}
	if l.Hooks != nil {
		// Still valid after the miss means the flowlet was live but its
		// uplink is no longer allowed.
		l.recordDecision(dstLeaf, choice, prev, l.Flowlets.valid(flowHash), localMetrics, remote, now)
	}
	l.Flowlets.Install(flowHash, choice, now)
	return choice
}

// recordDecision reports one congestion-aware pick through the hook seam:
// the reason (new-flowlet / expired / evicted), the candidate vector the
// decision minimized over, and the feedback age of the winning uplink's
// remote metric. Kept out of the inline path so the hooks-off
// NewFlowletUplink body stays small; only runs when Hooks != nil.
func (l *Leaf) recordDecision(dstLeaf, choice, port int, active bool, localMetrics, remote []uint8, now sim.Time) {
	reason := telemetry.ReasonNewFlowlet
	switch {
	case active:
		reason = telemetry.ReasonEvicted
	case port >= 0:
		reason = telemetry.ReasonExpired
	}
	age := int64(-1)
	if a, ok := l.ToLeaf.FeedbackAge(dstLeaf, choice, now); ok {
		age = int64(a)
	}
	// Allocated on the first hooked decision, not in NewLeaf, so hooks-off
	// runs stay allocation-identical to a build without the decision plane.
	if cap(l.hookBuf) < len(localMetrics) {
		l.hookBuf = make([]uint8, l.numUplinks)
	}
	buf := l.hookBuf[:len(localMetrics)]
	for i := range localMetrics {
		buf[i] = combine(l.Params.PathMetric, localMetrics[i], remote[i])
	}
	l.Hooks.Decision(now, dstLeaf, choice, reason, age, buf)
}

// OnFabricArrival processes the CONGA header of a packet received from the
// fabric (this leaf is the destination TEP): it stores the path congestion
// in the Congestion-From-Leaf table and applies any piggybacked feedback to
// the Congestion-To-Leaf table.
func (l *Leaf) OnFabricArrival(srcLeaf int, h Header, now sim.Time) {
	l.FromLeaf.Observe(srcLeaf, h.LBTag, h.CE, now)
	if h.FBValid && int(h.FBLBTag) < l.numUplinks {
		l.ToLeaf.Update(srcLeaf, int(h.FBLBTag), h.FBMetric, now)
	}
}

// PrepareHeader builds the CONGA header for a packet this leaf is sending
// to dstLeaf on the given uplink, piggybacking one feedback metric if any
// is pending.
func (l *Leaf) PrepareHeader(dstLeaf, uplink int, vni uint32, now sim.Time) Header {
	h := Header{VNI: vni, LBTag: uint8(uplink)}
	if tag, metric, ok := l.FromLeaf.PickFeedback(dstLeaf, now); ok {
		h.FBValid = true
		h.FBLBTag = tag
		h.FBMetric = metric
	}
	return h
}

// SweepFlowlets runs the periodic age-bit sweep; the owning switch calls it
// every Tfl.
func (l *Leaf) SweepFlowlets() { l.Flowlets.Sweep() }
