package fabric

import (
	"fmt"
	"math"
	"unsafe"

	"conga/internal/core"
	"conga/internal/prefetch"
	"conga/internal/sim"
	"conga/internal/telemetry"
)

// Link is a unidirectional link with a drop-tail output queue, a fixed
// rate, and a propagation delay. Fabric links (leaf↔spine) additionally
// carry a DRE and stamp the CONGA CE field of transiting packets; this is
// the "Per-link Congestion Measurement" box of Figure 4.
//
// The transmitter is modelled in virtual time (DESIGN.md §3.9). Starting a
// packet claims the transmitter until freeAt, its serialization end, and
// commits the next-hop arrival at once — scheduled, or mailboxed on a
// cross-domain link — so an uncontended hop costs exactly one event.
// claimSeq is an engine sequence number reserved with the claim: the
// claim expires at (freeAt, claimSeq), which is where the one event a
// contended link needs — the drain that starts the queue head — is armed,
// and against which same-instant senders and counter reads are ordered.
//
// Fields are ordered by temperature (DESIGN.md §3.10, pinned by
// TestLinkLayout): what Send, start and an arrival touch per packet leads,
// what only drops, failures and set-up touch trails.
type Link struct {
	freeAt   sim.Time
	claimSeq uint64
	serSize  int32 // wire size of the packet holding the claim; 0 once it counts as transmitted
	up       bool
	fab      bool // fabric link: encap overhead + DRE + CE marking
	// dreListed is owned by the network's decay ticker, which only visits
	// links with a nonzero DRE register: start sets it (and calls dreNotify
	// to get onto the ticker's dirty-list) on the first traffic after the
	// register hit zero, the ticker clears it when it drops the drained link.
	dreListed bool
	eng       *sim.Engine
	queue     sim.Queue // drop-tail FIFO threaded through the queued packets' own nodes
	qlen      int       // queued bytes
	maxQ      int       // queue capacity in bytes (excluding the packet in service)
	rate      float64   // bits per second
	prop      sim.Time
	dst       node
	// xq, when non-nil, marks a cross-domain link whose deliveries go
	// through a window-exchange mailbox instead of a directly scheduled
	// event (see partition.go).
	xq *mailbox

	// Arrivals ride the packets' own nodes. wire is the packet whose
	// arrival start committed last, which is the one serializing for as
	// long as serSize is nonzero and the claim holds — the only time SetUp
	// reads it.
	wire *Packet
	// Transmit counters, bumped when a packet starts; read them through
	// TxPackets/TxBytes, which leave out a packet still on the wire. drained
	// counts the starts made by drain; the rest found the link idle.
	txPackets uint64
	txBytes   uint64 // wire bytes
	drained   uint64
	// tel is nil when telemetry is off: every instrumentation site is a
	// single nil check (see internal/telemetry).
	tel       *telemetry.LinkCounters
	dreNotify func(*Link)
	// serMemo is serTime's two-entry move-to-front memo, wire size →
	// serialization ns. Size 0 (no packet has it) marks an empty entry.
	serMemoSize [2]int32
	serMemoNs   [2]sim.Time
	// killed counts the packets SetUp(false) killed on the wire, which count
	// both as transmitted and as dropped. Only the audit reads it; it sits in
	// the padding that closes the third line, so the DRE opens the fourth.
	killed uint64
	_      [8]byte
	// Fabric links only: the fourth line, which an access link's send never
	// touches.
	dre        core.DRE
	pathMetric core.PathMetric

	// Cold from here on, except drainEv: the one event of its own a link
	// can have pending, armed where the current claim expires. It opens the
	// fifth cache line, so a pop of a drain costs one line fill.
	Drops     uint64
	DropBytes uint64
	drainEv   sim.Node
	// gen points at the owning network's link-state generation (fabric
	// links of a Network only; nil otherwise). SetUp bumps it so the
	// leaves' cached reachability rows are recomputed.
	gen   *uint64
	trace *telemetry.PacketTrace // nil unless a packet trace is attached
	pool  *PacketPool
	Name  string
	// dom is the partition domain of the transmitting node, which owns eng,
	// pool, queue, DRE and counters (0 on sequential networks).
	dom int
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
	if cfg.Fabric {
		l.dre = *NewLinkDRE(cfg.RateBps, cfg.Params)
		l.pathMetric = cfg.Params.PathMetric
	}
	return l
}

// NewLinkDRE builds the DRE for a fabric link; split out so tests can
// construct DREs the same way the fabric does.
func NewLinkDRE(rateBps float64, p core.Params) *core.DRE {
	return core.NewDRE(rateBps, p)
}

// Up reports whether the link is in service.
func (l *Link) Up() bool { return l.up }

// SetUp administratively raises or fails the link. Failing a link drops
// everything queued (as pulling a cable does) and resets its DRE.
//
// A fabric link's SetUp also bumps its network's link-state generation,
// which every leaf's PathUsable reads. Under the parallel engine that word
// and the links' up flags are shared across domains, so a partitioned
// network changes link state only before its run (FailedLinks); killing a
// packet mid-serialization on a cross-domain link panics.
func (l *Link) SetUp(up bool) {
	l.up = up
	if l.gen != nil {
		*l.gen++
	}
	if up {
		return
	}
	now := l.eng.Now()
	for p := l.next(); p != nil; p = l.next() {
		l.drop(p, now)
	}
	l.qlen = 0
	if l.fab {
		l.dre.Reset()
	}
	// A packet still serializing when the cable is pulled dies on the wire:
	// its arrival, committed when it started, is cancelled and the packet
	// dropped. The victim counts as transmitted from the kill on; the claim
	// itself stands, so a restored link stays busy until freeAt.
	if l.serSize == 0 || !l.claimed(now) {
		return
	}
	if l.xq != nil {
		panic(fmt.Sprintf("fabric: link %s failed mid-serialization under the parallel engine, whose cross-domain arrivals cannot be cancelled; fail links before the run (FailedLinks) or run sequentially", l.Name))
	}
	l.serSize = 0
	victim := l.wire
	if victim.link != l || !l.eng.CancelNode(&victim.ev) {
		panic(fmt.Sprintf("fabric: link %s lost track of the packet it is serializing", l.Name))
	}
	l.killed++
	l.drop(victim, now)
}

// Metric returns the link's quantized congestion metric, 0 for access
// links.
func (l *Link) Metric() uint8 {
	if !l.fab {
		return 0
	}
	return l.dre.Quantized()
}

// QueuedBytes returns the bytes waiting in the queue (not counting the
// packet in service).
func (l *Link) QueuedBytes() int { return l.qlen }

// claimed reports whether the newest claim still holds the transmitter for
// a caller running at now. A claim ending exactly now still holds against
// callers ordered before its reserved sequence number.
func (l *Link) claimed(now sim.Time) bool {
	return l.freeAt > now || (l.freeAt == now && l.eng.CurSeq() < l.claimSeq)
}

// TxPackets returns the packets fully serialized as of the engine's clock:
// a packet still on the wire is left out until its claim expires (or a
// SetUp(false) kills it), exactly when a discrete tx-done event would have
// counted it, so samplers ticking mid-run read what the wire has carried.
func (l *Link) TxPackets() uint64 {
	if l.serSize != 0 && l.claimed(l.eng.Now()) {
		return l.txPackets - 1
	}
	return l.txPackets
}

// TxBytes returns the wire bytes fully serialized as of the engine's
// clock; see TxPackets.
func (l *Link) TxBytes() uint64 {
	if l.serSize != 0 && l.claimed(l.eng.Now()) {
		return l.txBytes - uint64(l.serSize)
	}
	return l.txBytes
}

func (l *Link) wireSize(p *Packet) int {
	if l.fab {
		return p.FabricWireSize()
	}
	return p.WireSize()
}

// Send enqueues p for transmission. If the queue is full the packet is
// dropped (drop-tail). A downed link drops everything. A claimed
// transmitter queues the packet and makes sure the drain is armed at the
// claim's expiry; a free one starts the packet at once.
func (l *Link) Send(p *Packet, now sim.Time) {
	if !l.up {
		l.drop(p, now)
		return
	}
	if l.queue.Head() != nil || l.claimed(now) {
		size := l.wireSize(p)
		if l.qlen+size > l.maxQ {
			l.drop(p, now)
			return
		}
		l.queue.Push(&p.ev)
		l.qlen += size
		if l.tel != nil {
			l.tel.Enqueues++
		}
		if !l.drainEv.Pending() {
			l.armDrain()
		}
		return
	}
	if l.tel != nil {
		l.tel.Enqueues++
	}
	l.start(p, now)
}

// fold queues p, a segment a host hands its NIC, by extending the queue's
// tail when the tail holds the previous segment of p's flow: the tail
// becomes (or stays) a super-packet, p's frame joins the tail's last frame
// group, or opens a new one when p was sent at another instant, and p goes
// back to the pool. It applies Send's drop-tail check and reports whether
// it queued p; on false p is Send's. Only host NICs fold (Host.Send): a
// packet inside the fabric carries per-packet overlay state.
//
// The fold is exact by construction — next cuts back frames equal, field
// for field, to the packets folded — so it requires pooled data packets
// that differ only in Seq, Payload and SentAt, p starting where the tail
// ends, and every frame already in the tail seg bytes with p no longer.
func (l *Link) fold(p *Packet) bool {
	tn := l.queue.Tail()
	if tn == nil || !l.up || l.pool == nil {
		return false
	}
	t := nodePacket(tn)
	if !sameFlowData(t, p) || t.Seq+int64(t.Payload) != p.Seq {
		return false
	}
	pp := l.pool
	seg := t.Payload
	if t.train != 0 {
		seg = pp.groups[t.train-1].seg
	}
	if p.Payload <= 0 || p.Payload > seg || t.Payload%seg != 0 || int64(t.Payload)+int64(p.Payload) > math.MaxInt32 {
		return false
	}
	size := l.wireSize(p)
	if l.qlen+size > l.maxQ {
		return false
	}
	if t.train == 0 {
		t.train = pp.newGroup(t.SentAt)
		first := &pp.groups[t.train-1]
		first.seg, first.last = seg, t.train
	}
	if last := &pp.groups[pp.groups[t.train-1].last-1]; last.at == p.SentAt {
		last.n++
	} else {
		i := pp.newGroup(p.SentAt) // may move the slab
		first := &pp.groups[t.train-1]
		pp.groups[first.last-1].next, first.last = i, i
	}
	t.Payload += p.Payload
	l.qlen += size
	if l.tel != nil {
		l.tel.Enqueues++
	}
	pp.Put(p)
	return true
}

// sameFlowData reports whether t and p are pooled data packets of one flow
// that differ at most in Seq, Payload and SentAt (and their nodes).
func sameFlowData(t, p *Packet) bool {
	return t.pooled && p.pooled && !t.IsAck && !p.IsAck && t.SackN == 0 && p.SackN == 0 &&
		t.FlowID == p.FlowID && t.DstHost == p.DstHost && t.SrcPort == p.SrcPort && t.DstPort == p.DstPort &&
		t.SrcHost == p.SrcHost && t.lbHash == p.lbHash && t.AckNo == p.AckNo && t.Sack == p.Sack &&
		t.EchoTS == p.EchoTS && t.Hdr == p.Hdr && t.SrcLeaf == p.SrcLeaf && t.DstLeaf == p.DstLeaf
}

// next removes the queue's next frame and returns it, or nil when the
// queue is empty. A plain head is popped whole. A super-packet at its last
// frame is popped and is that frame; before it, the frame is a pool packet
// copied from the head, which advances by one frame and stays queued.
func (l *Link) next() *Packet {
	n := l.queue.Head()
	if n == nil {
		return nil
	}
	h := nodePacket(n)
	if h.train == 0 {
		l.queue.Pop()
		return h
	}
	pp := l.pool
	i := h.train
	g := &pp.groups[i-1]
	if h.Payload <= g.seg {
		l.queue.Pop()
		h.SentAt, h.train = g.at, 0
		pp.freeGroup(i)
		return h
	}
	f := pp.Get()
	*f = *h
	f.ev, f.train = sim.Node{}, 0
	f.Payload, f.SentAt = g.seg, g.at
	h.Seq += int64(g.seg)
	h.Payload -= g.seg
	if g.n--; g.n == 0 {
		h.train = g.next
		ng := &pp.groups[g.next-1]
		ng.seg, ng.last = g.seg, g.last
		pp.freeGroup(i)
	}
	return f
}

// start puts p on the wire — the only transmitter. CONGA congestion
// marking (§3.3 step 2) happens here: as the packet leaves the port its CE
// field picks up the link's congestion metric (max or saturating sum per
// the configured path metric) and the DRE counts its bytes. The
// transmitter is claimed through the serialization end and the next-hop
// arrival is committed at now+serialization+propagation. The reserved
// claimSeq comes first and the arrival's sequence number second, the order
// a tx-done/delivery event pair scheduled here would take them.
func (l *Link) start(p *Packet, now sim.Time) {
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
	serEnd := now + l.serTime(size)
	arrival := serEnd + l.prop
	l.txPackets++
	l.txBytes += uint64(size)
	l.serSize = int32(size)
	l.freeAt = serEnd
	l.claimSeq = l.eng.ReserveSeq()
	p.link, l.wire = l, p
	if l.xq != nil {
		// Cross-domain hop: the destination's engine belongs to another
		// worker goroutine, so the arrival goes to the (srcDomain,
		// dstDomain) mailbox — zero local events, no sequence number — and
		// is scheduled there during the next window exchange. The
		// propagation delay is at least the window size, so it always lands
		// beyond the window being executed.
		l.xq.push(p, arrival)
		return
	}
	l.eng.AtNode(arrival, &p.ev, (*arrivalEvent)(p))
}

// serTime returns the serialization time of size wire bytes. A link carries
// almost only full segments and ACKs, so the two sizes seen last (most
// recent first) answer without the dependent float divide; rate never
// changes after NewLink, so a hit is the very value the formula gave on the
// miss.
func (l *Link) serTime(size int) sim.Time {
	s := int32(size)
	if l.serMemoSize[0] == s {
		return l.serMemoNs[0]
	}
	ns := l.serMemoNs[1]
	if l.serMemoSize[1] != s {
		ns = sim.Time(float64(size) * 8 / l.rate * float64(sim.Second))
	}
	l.serMemoSize[1], l.serMemoNs[1] = l.serMemoSize[0], l.serMemoNs[0]
	l.serMemoSize[0], l.serMemoNs[0] = s, ns
	return ns
}

// drain fires when a claim with packets queued behind it expires — at
// (freeAt, claimSeq) — and starts the queue head. It re-arms itself under
// the new claim only while packets remain, so a busy period of k queued
// packets costs k drains and an idle link none.
func (l *Link) drain(now sim.Time) {
	p := l.next()
	if p == nil {
		return // flushed by SetUp(false) after the drain was armed
	}
	// next takes a popped head's successor from its first line, which start
	// touches anyway, and must come first: start's scheduling rewrites that
	// node link.
	l.qlen -= l.wireSize(p)
	l.drained++
	l.start(p, now)
	if h := l.queue.Head(); h != nil {
		// The next drain reads the new head's Payload one serialization time
		// from now; the packet has sat untouched since it was enqueued.
		prefetch.Lines2(unsafe.Pointer(h))
		l.armDrain()
	}
}

// armDrain schedules drain where the current claim expires.
func (l *Link) armDrain() {
	l.eng.AtNodeSeq(l.freeAt, &l.drainEv, (*drainEvent)(l), l.claimSeq)
}

// drainEvent and arrivalEvent are Link and Packet seen as event handlers,
// which keeps Fire off the two types' exported method sets.
type (
	drainEvent   Link
	arrivalEvent Packet
)

func (d *drainEvent) Fire(now sim.Time) { (*Link)(d).drain(now) }

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
		p.record(l.trace, now, telemetry.TraceDrop, l.Name)
	}
	l.pool.Put(p)
}

// Fire delivers the packet to the far end of the link it crossed.
func (a *arrivalEvent) Fire(now sim.Time) {
	p := (*Packet)(a)
	p.link.dst.handle(p, p.link, now)
}
