package fabric

import (
	"fmt"

	"conga/internal/core"
	"conga/internal/sim"
	"conga/internal/telemetry"
)

// Link is a unidirectional link with a drop-tail output queue, a fixed
// rate, and a propagation delay. Fabric links (leaf↔spine) additionally
// carry a DRE and stamp the CONGA CE field of transiting packets; this is
// the "Per-link Congestion Measurement" box of Figure 4.
type Link struct {
	Name string

	eng   *sim.Engine
	pool  *PacketPool
	rate  float64 // bits per second
	prop  sim.Time
	dst   node
	fab   bool // fabric link: encap overhead + DRE + CE marking
	up    bool
	maxQ  int // queue capacity in bytes (excluding the packet in service)
	qhead int
	queue []*Packet
	qlen  int // queued bytes
	busy  bool

	// The packet being serialized and the FIFO of packets in propagation.
	// Tx-done and delivery events are bound method values created once at
	// construction, so the per-packet hot path schedules no closures.
	txPkt     *Packet
	txSize    int
	inflight  []*Packet
	infHead   int
	txDoneFn  sim.Event
	deliverFn sim.Event

	// Idle-path cut-through (DESIGN.md §3.9). When fuse is set and the
	// transmitter is free with an empty queue, Send applies the transmit
	// and tx-done side effects inline and schedules the next-hop arrival
	// directly (one event instead of the txDone→deliver pair), or — inside
	// an arrival context with nothing pending in between — calls the
	// destination handler synchronously (zero events for the hop). freeAt
	// claims the transmitter through the fused serialization; packets
	// hitting a live claim queue as usual and a lazily armed drain event at
	// freeAt resumes the slow path, so contention costs exactly the
	// unfused event count. claimSeq is the engine sequence number reserved
	// for the claim at fuse time — the number the skipped txDone would have
	// carried — and the drain event is scheduled under it via AtSeq, so the
	// fused run breaks every (time, seq) tie exactly as the slow path does.
	// fusedPkt is the newest fused packet, which is the only one that can
	// still be on the wire if the link fails mid-serialization (SetUp
	// mirrors the slow path's in-service drop for it).
	fuse       bool
	dstIsHost  bool       // chains never extend into transport endpoints
	chain      *chainFlag // owning domain's arrival-context flag; nil ⇒ no chaining
	freeAt     sim.Time
	claimSeq   uint64
	fusedPkt   *Packet
	drainFn    sim.Event
	drainArmed bool

	// Space-parallel partition wiring (see partition.go): dom is the
	// domain of the transmitting node (which owns eng, pool, queue, DRE
	// and counters); xq, when non-nil, marks a cross-domain link whose
	// deliveries go through a window-exchange mailbox instead of a
	// directly scheduled event. Both are zero on sequential networks.
	dom int
	xq  *mailbox

	dre        *core.DRE // nil on access links
	pathMetric core.PathMetric
	// The owning network's decay ticker only visits links with a nonzero
	// DRE register. dreNotify (set by the network) registers this link on
	// its dirty-list the first time traffic arrives after the register hit
	// zero; dreListed is owned by the ticker, which clears it when it
	// drops the drained link from the list.
	dreNotify func(*Link)
	dreListed bool

	// gen points at the owning network's link-state generation (fabric
	// links of a Network only; nil otherwise). SetUp bumps it so the
	// leaves' cached reachability rows are recomputed.
	gen *uint64

	// Counters, exported for the stats collectors.
	TxPackets uint64
	TxBytes   uint64 // wire bytes actually serialized
	Drops     uint64
	DropBytes uint64

	// Telemetry hooks, nil when telemetry is off: every instrumentation
	// site below is a single nil check (see internal/telemetry).
	tel   *telemetry.LinkCounters
	trace *telemetry.PacketTrace
}

// LinkConfig parameterizes NewLink.
type LinkConfig struct {
	Name      string
	RateBps   float64
	PropDelay sim.Time
	BufBytes  int
	Fabric    bool // carries overlay traffic: encap overhead, DRE, CE marking
	Params    core.Params
	// Pool, when set, receives packets the link drops. Links built by
	// NewNetwork share the network's pool.
	Pool *PacketPool
}

// NewLink creates a link delivering to dst. Fabric links get a DRE sized to
// the link rate.
func NewLink(eng *sim.Engine, cfg LinkConfig, dst node) *Link {
	if cfg.RateBps <= 0 {
		panic(fmt.Sprintf("fabric: link %q rate %v must be positive", cfg.Name, cfg.RateBps))
	}
	if cfg.BufBytes <= 0 {
		panic(fmt.Sprintf("fabric: link %q buffer %d must be positive", cfg.Name, cfg.BufBytes))
	}
	l := &Link{
		Name: cfg.Name,
		eng:  eng,
		pool: cfg.Pool,
		rate: cfg.RateBps,
		prop: cfg.PropDelay,
		dst:  dst,
		fab:  cfg.Fabric,
		up:   true,
		maxQ: cfg.BufBytes,
	}
	l.txDoneFn = l.txDone
	l.deliverFn = l.deliver
	l.drainFn = l.drain
	_, l.dstIsHost = dst.(*Host)
	if cfg.Fabric {
		l.dre = NewLinkDRE(cfg.RateBps, cfg.Params)
		l.pathMetric = cfg.Params.PathMetric
	}
	return l
}

// NewLinkDRE builds the DRE for a fabric link; split out so tests can
// construct DREs the same way the fabric does.
func NewLinkDRE(rateBps float64, p core.Params) *core.DRE {
	return core.NewDRE(rateBps, p)
}

// Rate returns the link rate in bits per second.
func (l *Link) Rate() float64 { return l.rate }

// Up reports whether the link is in service.
func (l *Link) Up() bool { return l.up }

// SetUp administratively raises or fails the link. Failing a link drops
// everything queued (as pulling a cable does) and resets its DRE.
//
// A fabric link's SetUp also bumps its network's link-state generation,
// which every leaf's PathUsable reads. Under the parallel engine that is
// one more word shared across domains next to the links' up flags
// PathUsable has always read: call SetUp between runs or from a point where
// all domains are quiescent. A SetUp racing another domain's window is as
// undefined as it was before the generation counter existed — no more, no
// less.
func (l *Link) SetUp(up bool) {
	l.up = up
	if l.gen != nil {
		*l.gen++
	}
	if !up {
		now := l.eng.Now()
		for _, p := range l.queue[l.qhead:] {
			l.drop(p, now)
		}
		l.queue = l.queue[:0]
		l.qhead = 0
		l.qlen = 0
		if l.dre != nil {
			l.dre.Reset()
		}
		// A packet still serializing when the cable is pulled dies on the
		// wire. Both paths commit the arrival at transmit start (inflight
		// ring or mailbox), so the committed entry is tombstoned and the
		// arrival fires as a no-op. At most one packet can be mid-
		// serialization: the transmitter is serial, so every earlier one
		// finished before the next was accepted. The slow path's victim
		// still gets its tx counters (the fast path already counted at
		// transmit start), keeping fused and unfused totals identical.
		var victim *Packet
		if l.txPkt != nil {
			victim = l.txPkt
			l.txPkt = nil
			l.TxPackets++
			l.TxBytes += uint64(l.txSize)
			if l.tel != nil {
				l.tel.Dequeues++
			}
		} else if l.fusedPkt != nil && l.freeAt > now {
			victim = l.fusedPkt
		}
		l.fusedPkt = nil
		if victim != nil {
			found := false
			if l.xq != nil {
				es := l.xq.entries
				for i := len(es) - 1; i >= 0; i-- {
					if es[i].p == victim {
						es[i].p = nil
						found = true
						break
					}
				}
			} else {
				for i := len(l.inflight) - 1; i >= l.infHead; i-- {
					if l.inflight[i] == victim {
						l.inflight[i] = nil
						found = true
						break
					}
				}
			}
			// A cross-domain entry already drained by a window exchange has
			// left this domain's reach; it delivers (the packet was fully
			// committed to the wire when the window closed).
			if found {
				l.drop(victim, now)
			}
		}
	}
}

// DRE returns the link's rate estimator (nil for access links).
func (l *Link) DRE() *core.DRE { return l.dre }

// Metric returns the link's quantized congestion metric, 0 for access
// links.
func (l *Link) Metric() uint8 {
	if l.dre == nil {
		return 0
	}
	return l.dre.Quantized()
}

// QueuedBytes returns the bytes waiting in the queue (not counting the
// packet in service).
func (l *Link) QueuedBytes() int { return l.qlen }

func (l *Link) wireSize(p *Packet) int {
	if l.fab {
		return p.FabricWireSize()
	}
	return p.WireSize()
}

// Send enqueues p for transmission. If the queue is full the packet is
// dropped (drop-tail). A downed link drops everything. A transmitter that
// is busy — serializing on the slow path, claimed by a fused send through
// freeAt, or with packets still queued behind such a claim — queues the
// packet; otherwise it transmits immediately, via the cut-through fast
// path when the link allows fusion.
func (l *Link) Send(p *Packet, now sim.Time) {
	if !l.up {
		l.drop(p, now)
		return
	}
	// A claim ending exactly now still blocks senders ordered before the
	// skipped txDone's sequence number: the slow-path transmitter would
	// still have been busy when they ran.
	if l.busy || l.freeAt > now || l.qhead < len(l.queue) ||
		(l.fuse && l.freeAt == now && l.eng.CurSeq() < l.claimSeq) {
		if l.qlen+l.wireSize(p) > l.maxQ {
			l.drop(p, now)
			return
		}
		l.queue = append(l.queue, p)
		l.qlen += l.wireSize(p)
		if l.tel != nil {
			l.tel.Enqueues++
		}
		// First packet behind a fused claim: arm the drain that stands in
		// for the skipped txDone's queue pop, at the exact time — and under
		// the exact sequence number — the skipped txDone would have run.
		if !l.busy && !l.drainArmed {
			l.drainArmed = true
			l.eng.AtSeq(l.freeAt, l.drainFn, l.claimSeq)
		}
		return
	}
	if l.tel != nil {
		l.tel.Enqueues++
	}
	if l.fuse {
		l.fastTransmit(p, now)
		return
	}
	l.transmit(p, now)
}

// fastTransmit is the idle-path cut-through: the transmit and tx-done side
// effects run inline at send time and the next-hop arrival is committed
// analytically at now+serialization+propagation. Equivalence to the slow
// path (DESIGN.md §3.9): queue occupancy is untouched either way, CE
// marking and DRE accounting happen at transmit start in both, arrival
// commitment (inflight ring or mailbox entry, and the delivery event's
// sequence number) happens at transmit start in both, and the skipped
// txDone's sequence number is reserved so contention and same-instant ties
// resolve identically. The tx-done counters move earlier only within the
// serialization interval — no event can observe the difference mid-claim
// except explicitly sampled counter snapshots, which is why tracing and
// live taps force fusion off.
func (l *Link) fastTransmit(p *Packet, now sim.Time) {
	size := l.wireSize(p)
	if l.fab {
		if l.tel != nil {
			prev := p.Hdr.CE
			p.Hdr.CE = core.MarkCE(l.pathMetric, p.Hdr.CE, l.dre.Quantized())
			if p.Hdr.CE > prev {
				l.tel.CEMarks++
			}
		} else {
			p.Hdr.CE = core.MarkCE(l.pathMetric, p.Hdr.CE, l.dre.Quantized())
		}
		l.dre.Add(size)
		if !l.dreListed && l.dreNotify != nil {
			l.dreListed = true
			l.dreNotify(l)
		}
	}
	serEnd := now + sim.Time(float64(size)*8/l.rate*float64(sim.Second))
	arrival := serEnd + l.prop
	l.TxPackets++
	l.TxBytes += uint64(size)
	if l.tel != nil {
		l.tel.Dequeues++
	}
	l.freeAt = serEnd
	l.claimSeq = l.eng.ReserveSeq() // the skipped txDone's number
	l.fusedPkt = p
	if l.xq != nil {
		// Cross-domain hop: one mailbox entry, zero local events. The slow
		// path consumes no further sequence numbers here either (its
		// mailbox push is seq-free), so parity holds.
		l.xq.push(p, arrival, l)
		return
	}
	if c := l.chain; c != nil && c.active && !l.dstIsHost && l.eng.ChainableTo(arrival) {
		// Hop chain: nothing is pending in (now, arrival], the arrival
		// handler is the tail of the current (pure-arrival) event, and the
		// destination is a switch whose handler reads only the explicit
		// time — so running it here is indistinguishable from the engine
		// executing a scheduled arrival. The handler runs under the
		// sequence number its delivery event would have carried, so any
		// same-instant claims it races against resolve identically. Fully
		// delivered, the packet can no longer be killed by a
		// mid-serialization link failure (any such failure event would have
		// blocked the chain).
		l.fusedPkt = nil
		prev := l.eng.SetCurSeq(l.eng.ReserveSeq())
		l.dst.handle(p, l, arrival)
		l.eng.SetCurSeq(prev)
		return
	}
	l.inflight = append(l.inflight, p)
	l.eng.At(arrival, l.deliverFn)
}

// drain retires an expired fused claim: it fires at freeAt — the instant
// the skipped txDone would have freed the transmitter — and starts the
// queued packet on the slow path.
func (l *Link) drain(now sim.Time) {
	l.drainArmed = false
	l.next(now)
}

// drop is the one place a link loses a packet — sent into a downed link,
// tail-dropped, or flushed / killed on the wire by SetUp(false) — so the
// link counters, the telemetry counter and the packet trace always agree.
// Both hooks are nil with telemetry off, making them two predictable
// branches on the drop path. The packet goes back to the pool.
func (l *Link) drop(p *Packet, now sim.Time) {
	l.Drops++
	l.DropBytes += uint64(l.wireSize(p))
	if l.tel != nil {
		l.tel.Drops++
	}
	if l.trace != nil {
		l.trace.Record(now, telemetry.TraceDrop, l.Name, p.FlowID,
			p.SrcHost, p.DstHost, p.SrcPort, p.DstPort, p.Seq, p.Payload)
	}
	l.pool.Put(p)
}

func (l *Link) transmit(p *Packet, now sim.Time) {
	l.busy = true
	size := l.wireSize(p)
	// CONGA congestion marking (§3.3 step 2): as the packet traverses the
	// link its CE field picks up the link's congestion metric (max or
	// saturating sum per the configured path metric). Marking at transmit
	// start models the ASIC updating the field as the packet leaves the
	// port.
	if l.fab {
		if l.tel != nil {
			prev := p.Hdr.CE
			p.Hdr.CE = core.MarkCE(l.pathMetric, p.Hdr.CE, l.dre.Quantized())
			if p.Hdr.CE > prev {
				l.tel.CEMarks++
			}
		} else {
			p.Hdr.CE = core.MarkCE(l.pathMetric, p.Hdr.CE, l.dre.Quantized())
		}
		l.dre.Add(size)
		if !l.dreListed && l.dreNotify != nil {
			l.dreListed = true
			l.dreNotify(l)
		}
	}
	l.txPkt, l.txSize = p, size
	serEnd := now + sim.Time(float64(size)*8/l.rate*float64(sim.Second))
	l.eng.At(serEnd, l.txDoneFn)
	// The arrival is committed at transmit start, exactly as the fused fast
	// path commits it, so delivery events carry identical sequence numbers
	// in both modes and every same-instant tie breaks the same way. A link
	// failure before serEnd tombstones the committed entry (see SetUp).
	if l.xq != nil {
		// Cross-domain link: the destination's engine belongs to another
		// worker goroutine, so the arrival is exported to the (srcDomain,
		// dstDomain) mailbox and scheduled there during the next window
		// exchange. The propagation delay is at least the window size, so
		// the arrival always lands beyond the window being executed.
		l.xq.push(p, serEnd+l.prop, l)
	} else {
		// Delivery events for this link all share l.deliverFn; the inflight
		// FIFO maps each firing back to its packet. That pairing is sound
		// because serialization keeps arrival times strictly increasing,
		// propagation delay is constant, and the engine breaks time ties in
		// scheduling order.
		l.inflight = append(l.inflight, p)
		l.eng.At(serEnd+l.prop, l.deliverFn)
	}
}

func (l *Link) txDone(now sim.Time) {
	if l.txPkt != nil { // nil: killed by a mid-serialization SetUp
		l.txPkt = nil
		l.TxPackets++
		l.TxBytes += uint64(l.txSize)
		if l.tel != nil {
			l.tel.Dequeues++
		}
	}
	l.next(now)
}

func (l *Link) deliver(now sim.Time) {
	p := l.inflight[l.infHead]
	l.inflight[l.infHead] = nil
	l.infHead++
	if l.infHead > 32 && l.infHead*2 >= len(l.inflight) {
		n := copy(l.inflight, l.inflight[l.infHead:])
		l.inflight = l.inflight[:n]
		l.infHead = 0
	}
	if p == nil {
		// Tombstone: a fused packet killed by a mid-serialization link
		// failure (SetUp). The arrival slot still had to fire to keep the
		// ring's FIFO pairing intact.
		return
	}
	if c := l.chain; c != nil && !l.dstIsHost {
		// Switch-arrival context: while the destination handler runs,
		// downstream idle sends may collapse the next hop into this event
		// (see fastTransmit). Switch handlers forward at most one packet
		// and do it as their final action, so the handler is this event's
		// tail and the flag covers exactly the chainable region. Host
		// arrivals never set it: a transport may emit several packets and
		// keep computing after each send, which is not a pure tail.
		c.active = true
		l.dst.handle(p, l, now)
		c.active = false
		return
	}
	l.dst.handle(p, l, now)
}

// chainFlag marks, per partition domain, that the currently executing
// event is a pure packet arrival — its only remaining work is the
// destination handler — which is the context where idle-path sends may
// legally chain hops synchronously.
type chainFlag struct{ active bool }

func (l *Link) next(now sim.Time) {
	l.busy = false
	if l.qhead < len(l.queue) {
		p := l.queue[l.qhead]
		l.queue[l.qhead] = nil
		l.qhead++
		// Compact the ring once the dead prefix dominates.
		if l.qhead > 64 && l.qhead*2 >= len(l.queue) {
			n := copy(l.queue, l.queue[l.qhead:])
			l.queue = l.queue[:n]
			l.qhead = 0
		}
		l.qlen -= l.wireSize(p)
		l.transmit(p, now)
	}
}
