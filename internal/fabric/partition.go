package fabric

import (
	"cmp"
	"fmt"
	"slices"

	"conga/internal/sim"
)

// Space-parallel fabric partitioning (see DESIGN.md §3.6).
//
// A partitioned network splits the fabric into P domains, one engine each:
// leaf l (with its hosts and access links) belongs to domain l mod P, and
// spine s to domain s mod P. Every link is owned by the domain of its
// *transmitting* node — the side that runs Send/start/drain and owns the
// queue, DRE, and counters — so the only cross-domain edges are leaf↔spine
// links whose two ends hash to different domains. Those carry at least
// FabricPropDelay of propagation, which is exactly the lookahead the window
// runner (sim.ParallelEngine) needs: a packet finishing serialization at
// time t inside a window [base, base+W) cannot arrive before t+W ≥ base+W,
// i.e. never inside the window being executed.
//
// Cross-domain links do not schedule their delivery event directly (the
// destination's engine belongs to another goroutine). Instead start drops
// the packet into the link's mailbox — one per (src domain, dst domain)
// pair, written only by the source worker during window execution and read
// only by the destination worker during the exchange phase, so the barrier
// ordering makes locks unnecessary. The destination then merges all its
// incoming mailboxes in (time, srcDomain, srcSeq) order, a total order
// independent of goroutine scheduling, which keeps parallel runs
// bit-reproducible for a fixed partition, and schedules each merged entry
// as what it would have been on an intra-domain link: an arrival event on
// the packet's own node.

// mailEntry is one cross-domain packet in transit: it left the transmitter
// of p.link and must be handed to that link's destination node at time at.
type mailEntry struct {
	p  *Packet
	at sim.Time
}

// mailbox buffers packets from one source domain to one destination domain
// until the next exchange phase. Entry order is the source engine's
// deterministic execution order, which the merge uses as srcSeq.
type mailbox struct {
	entries []mailEntry
}

func (mb *mailbox) push(p *Packet, at sim.Time) {
	mb.entries = append(mb.entries, mailEntry{p: p, at: at})
}

// xArrival is a mailbox entry tagged with its deterministic merge key
// (at, src, seq). The key is unique — one source domain produces one seq
// sequence — so even an unstable sort yields exactly one order.
type xArrival struct {
	p   *Packet
	at  sim.Time
	src int32
	seq int32
}

// deliverer is one domain's end of the exchange: its engine and the merge
// scratch buffer, reused across windows.
type deliverer struct {
	eng   *sim.Engine
	merge []xArrival
}

// Exchange drains every mailbox destined for domain d and schedules the
// arrivals on d's engine in (time, srcDomain, srcSeq) order: consecutive
// sequence numbers, so the engine's (time, seq) order is the merge order
// and, against d's own events, that of the exchange call. It is the
// per-window exchange callback for sim.ParallelEngine: it runs on domain
// d's worker goroutine after all domains have reached the window edge, and
// every drained arrival must be at or after windowEnd (the lookahead
// guarantee; a violation is a partitioning bug and panics).
func (n *Network) Exchange(d int, windowEnd sim.Time) {
	dv := n.deliv[d]
	merge := dv.merge[:0]
	for s := range n.mail {
		mb := n.mail[s][d]
		if mb == nil {
			continue
		}
		for i := range mb.entries {
			e := &mb.entries[i]
			if e.p != nil {
				merge = append(merge, xArrival{p: e.p, at: e.at, src: int32(s), seq: int32(i)})
			}
			// A nil p is a tombstone: a packet killed by a
			// mid-serialization link failure before the window closed
			// (Link.SetUp). It simply doesn't merge.
			*e = mailEntry{}
		}
		mb.entries = mb.entries[:0]
	}
	slices.SortFunc(merge, func(a, b xArrival) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.src, b.src), cmp.Compare(a.seq, b.seq))
	})
	for i := range merge {
		a := &merge[i]
		if a.at < windowEnd {
			panic(fmt.Sprintf("fabric: cross-domain arrival on %s at %v inside window ending %v (lookahead violated)",
				a.p.link.Name, a.at, windowEnd))
		}
		dv.eng.AtNode(a.at, &a.p.ev, (*arrivalEvent)(a.p))
	}
	dv.merge = merge[:0]
}

// Domains returns the number of partition domains (1 for a sequential
// network).
func (n *Network) Domains() int { return n.domains }

// DomainEngine returns domain d's engine.
func (n *Network) DomainEngine(d int) *sim.Engine { return n.engines[d] }

// LeafDomain returns the domain owning leaf (and its hosts).
func (n *Network) LeafDomain(leaf int) int { return leaf % n.domains }

// HostDomain returns the domain owning host.
func (n *Network) HostDomain(host int) int { return n.LeafDomain(n.HostLeaf(host)) }

// DomainPool returns domain d's packet pool.
func (n *Network) DomainPool(d int) *PacketPool { return n.pools[d] }

// NewPartitionedNetwork builds the fabric described by cfg across one
// engine per domain, for execution under sim.ParallelEngine with window
// cfg.FabricPropDelay. With a single engine it builds exactly the network
// NewNetwork does — NewNetwork delegates here — and every construction
// decision (link order, RNG splits, ticker order) is independent of the
// partition count, so the model is identical at any P; only event
// interleaving across domains may differ.
func NewPartitionedNetwork(engines []*sim.Engine, cfg Config) (*Network, error) {
	if len(engines) == 0 {
		return nil, fmt.Errorf("fabric: need at least one engine")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.WithDefaults()
	P := len(engines)
	if P > cfg.NumLeaves {
		return nil, fmt.Errorf("fabric: %d parallel domains exceed %d leaves (one leaf per domain minimum)",
			P, cfg.NumLeaves)
	}
	if P > 1 && cfg.Telemetry != nil {
		opts := cfg.Telemetry.Options()
		switch {
		case opts.Trace:
			return nil, fmt.Errorf("fabric: packet trace is not supported under the parallel engine (single shared trace buffer)")
		case opts.Hub != nil:
			return nil, fmt.Errorf("fabric: live taps are not supported under the parallel engine")
		case opts.Decisions && opts.DecisionTrace:
			// Per-leaf decision hooks (counters, path matrices, staleness
			// series) are domain-owned and stay available; only the single
			// shared audit buffer is rejected.
			return nil, fmt.Errorf("fabric: the decision trace is not supported under the parallel engine (single shared audit buffer); run sequentially for the audit trail, or keep Decisions without DecisionTrace")
		}
	}

	n := &Network{
		Engine:  engines[0],
		Cfg:     cfg,
		rng:     sim.NewRand(cfg.Seed),
		engines: engines,
		domains: P,
		linkGen: 1,
	}
	n.pools = make([]*PacketPool, P)
	for d := range n.pools {
		n.pools[d] = &PacketPool{}
	}
	n.pool = n.pools[0]
	n.dreActive = make([][]*Link, P)
	n.domFabIdx = make([][]int, P)
	n.domLeafIdx = make([][]int, P)
	if P > 1 {
		n.mail = make([][]*mailbox, P)
		for s := range n.mail {
			n.mail[s] = make([]*mailbox, P)
			for d := range n.mail[s] {
				if d != s {
					n.mail[s][d] = &mailbox{}
				}
			}
		}
		n.deliv = make([]*deliverer, P)
		for d := range n.deliv {
			n.deliv[d] = &deliverer{eng: engines[d]}
		}
	}

	// Hosts and leaves. Leaf l and everything below it live in domain l%P.
	for leaf := 0; leaf < cfg.NumLeaves; leaf++ {
		dom := leaf % P
		eng, pool := engines[dom], n.pools[dom]
		ls := &LeafSwitch{ID: leaf, net: n, pool: pool, firstHost: leaf * cfg.HostsPerLeaf}
		n.Leaves = append(n.Leaves, ls)
		n.domLeafIdx[dom] = append(n.domLeafIdx[dom], leaf)
		for i := 0; i < cfg.HostsPerLeaf; i++ {
			hostID := leaf*cfg.HostsPerLeaf + i
			h := newHost(hostID, leaf, pool)
			h.out = NewLink(eng, LinkConfig{
				Name:      fmt.Sprintf("h%d->l%d", hostID, leaf),
				RateBps:   cfg.AccessRateBps,
				PropDelay: cfg.AccessPropDelay,
				BufBytes:  cfg.HostBufBytes,
				Params:    cfg.Params,
				Pool:      pool,
			}, ls)
			h.out.dom = dom
			down := NewLink(eng, LinkConfig{
				Name:      fmt.Sprintf("l%d->h%d", leaf, hostID),
				RateBps:   cfg.AccessRateBps,
				PropDelay: cfg.AccessPropDelay,
				BufBytes:  cfg.EdgeBufBytes,
				Params:    cfg.Params,
				Pool:      pool,
			}, h)
			down.dom = dom
			ls.downlinks = append(ls.downlinks, down)
			n.Hosts = append(n.Hosts, h)
			n.hostLeaf = append(n.hostLeaf, int32(leaf))
		}
	}

	// Spines and fabric links. Spine s lives in domain s%P; each direction
	// of a leaf↔spine link is owned by its transmitter, so a pair spanning
	// two domains gets a mailbox in each direction.
	for s := 0; s < cfg.NumSpines; s++ {
		ss := &SpineSwitch{ID: s, pool: n.pools[s%P], down: make([][]*Link, cfg.NumLeaves)}
		n.Spines = append(n.Spines, ss)
	}
	for leaf := 0; leaf < cfg.NumLeaves; leaf++ {
		ls := n.Leaves[leaf]
		ld := leaf % P
		for s := 0; s < cfg.NumSpines; s++ {
			ss := n.Spines[s]
			sd := s % P
			for k := 0; k < cfg.LinksPerSpine; k++ {
				rate := cfg.LinkBps(leaf, s, k)
				up := NewLink(engines[ld], LinkConfig{
					Name:      fmt.Sprintf("l%d->s%d.%d", leaf, s, k),
					RateBps:   rate,
					PropDelay: cfg.FabricPropDelay,
					BufBytes:  cfg.FabricBufBytes,
					Fabric:    true,
					Params:    cfg.Params,
					Pool:      n.pools[ld],
				}, ss)
				up.dom = ld
				down := NewLink(engines[sd], LinkConfig{
					Name:      fmt.Sprintf("s%d.%d->l%d", s, k, leaf),
					RateBps:   rate,
					PropDelay: cfg.FabricPropDelay,
					BufBytes:  cfg.FabricBufBytes,
					Fabric:    true,
					Params:    cfg.Params,
					Pool:      n.pools[sd],
				}, ls)
				down.dom = sd
				// A state change on either invalidates every leaf's
				// reachability rows (see LeafSwitch.PathUsable).
				up.gen, down.gen = &n.linkGen, &n.linkGen
				if ld != sd {
					up.xq = n.mail[ld][sd]
					down.xq = n.mail[sd][ld]
				}
				ls.uplinks = append(ls.uplinks, up)
				ls.uplinkSpine = append(ls.uplinkSpine, s)
				ss.down[leaf] = append(ss.down[leaf], down)
				n.fabricLinks = append(n.fabricLinks, up, down)
				n.domFabIdx[ld] = append(n.domFabIdx[ld], len(n.fabricLinks)-2)
				n.domFabIdx[sd] = append(n.domFabIdx[sd], len(n.fabricLinks)-1)
			}
		}
	}

	// Reachability rows and strategies (both need uplinks wired first). The RNG split sequence runs in
	// leaf ID order regardless of P, so per-leaf strategies are seeded
	// identically at any partition count.
	for _, ls := range n.Leaves {
		ls.usable = make([]bool, cfg.NumLeaves*len(ls.uplinks))
		ls.usableGen = make([]uint64, cfg.NumLeaves)
		ls.strategy = n.newStrategy(ls)
	}

	// Telemetry hooks and series (no-op when cfg.Telemetry is nil).
	n.wireTelemetry(cfg.Telemetry)

	// DRE decay: one ticker per domain drives the estimators of that
	// domain's links that carried traffic recently. Links register
	// themselves on first transmission (Link.start) onto their owning
	// domain's dirty-list and are dropped once their register decays to
	// zero, so an idle fabric does no per-link work per period. Telemetry
	// rides this ticker for its queue/DRE samples instead of scheduling its
	// own events, keeping the executed-event count identical either way.
	notify := n.noteDREActive
	for _, l := range n.fabricLinks {
		l.dreNotify = notify
	}
	for d := 0; d < P; d++ {
		dom := d
		sim.NewTicker(engines[dom], cfg.Params.TDRE, func(now sim.Time) {
			act := n.dreActive[dom]
			kept := act[:0]
			for _, l := range act {
				l.dre.Decay()
				if l.dre.Active() {
					kept = append(kept, l)
				} else {
					l.dreListed = false
				}
			}
			for i := len(kept); i < len(act); i++ {
				act[i] = nil
			}
			n.dreActive[dom] = kept
			if n.telQueue != nil {
				n.sampleLinkSeries(dom, now)
			}
			if n.telStale != nil {
				n.sampleStaleness(dom, now)
			}
			// The streaming tap publishes here too: the DRE tick is an
			// existing safe point, so snapshot handoff adds no events and the
			// executed-event count stays identical with a tap attached.
			// (Taps are rejected under P>1, where PublishTap is a no-op.)
			n.tel.PublishTap(now)
		})
	}
	// Flowlet age sweep per leaf, every Tfl, on the leaf's own domain;
	// telemetry samples table occupancy and congestion-table metrics, and
	// the audit checks the swept tables and the domain's link queues, on the
	// same tick.
	for d := 0; d < P; d++ {
		dom := d
		sim.NewTicker(engines[dom], cfg.Params.Tfl, func(now sim.Time) {
			for _, leaf := range n.domLeafIdx[dom] {
				n.Leaves[leaf].strategy.Tick(now)
			}
			if n.telFlowlet != nil {
				n.sampleLeafSeries(dom, now)
			}
			if n.checkErrs != nil {
				n.checkSweep(dom, now)
			}
		})
	}
	return n, nil
}
