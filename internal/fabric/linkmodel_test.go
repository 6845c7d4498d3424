package fabric

import (
	"reflect"
	"testing"
	"unsafe"

	"conga/internal/core"
	"conga/internal/sim"
	"conga/internal/telemetry"
)

// modelRec is one observation of a link model run: a delivery ('d': time,
// packet, CE), a drop ('x': time, packet) or a probe ('p': time, then
// TxPackets, TxBytes, QueuedBytes).
type modelRec struct {
	kind    byte
	at      sim.Time
	a, b, c int64
}

// txLink is what the schedule drives: fabric.Link and the reference model.
type txLink interface {
	Send(p *Packet, now sim.Time)
	SetUp(up bool)
	TxPackets() uint64
	TxBytes() uint64
	QueuedBytes() int
}

// refLink is the discrete link this package shipped through PR 12 — one
// tx-done and one delivery event per packet, a sending flag, counters bumped
// when tx-done fires — kept as the oracle Link's virtual-time claim has to
// match event for event. It takes engine sequence numbers in the same
// order Link does (tx-done, then delivery), so same-instant ties break the
// same way on both engines.
type refLink struct {
	eng         *sim.Engine
	rate        float64
	prop        sim.Time
	maxQ, qlen  int
	fab         bool
	dre         *core.DRE
	up, sending bool
	queue       []*Packet
	txPkt       *Packet
	txSize      int
	inflight    []*Packet
	txPackets   uint64
	txBytes     uint64
	log         *[]modelRec
}

func (r *refLink) TxPackets() uint64 { return r.txPackets }
func (r *refLink) TxBytes() uint64   { return r.txBytes }
func (r *refLink) QueuedBytes() int  { return r.qlen }

func (r *refLink) size(p *Packet) int {
	if r.fab {
		return p.FabricWireSize()
	}
	return p.WireSize()
}

func (r *refLink) drop(p *Packet, now sim.Time) {
	*r.log = append(*r.log, modelRec{kind: 'x', at: now, a: p.Seq})
}

func (r *refLink) Send(p *Packet, now sim.Time) {
	switch {
	case !r.up:
		r.drop(p, now)
	case !r.sending:
		r.transmit(p, now)
	case r.qlen+r.size(p) > r.maxQ:
		r.drop(p, now)
	default:
		r.queue = append(r.queue, p)
		r.qlen += r.size(p)
	}
}

func (r *refLink) transmit(p *Packet, now sim.Time) {
	r.sending = true
	size := r.size(p)
	if r.fab {
		p.Hdr.CE = core.MarkCE(core.PathMetricMax, p.Hdr.CE, r.dre.Quantized())
		r.dre.Add(size)
	}
	r.txPkt, r.txSize = p, size
	serEnd := now + sim.Time(float64(size)*8/r.rate*float64(sim.Second))
	r.eng.At(serEnd, r.txDone)
	r.inflight = append(r.inflight, p)
	r.eng.At(serEnd+r.prop, r.deliver)
}

func (r *refLink) txDone(now sim.Time) {
	if r.txPkt != nil { // nil: killed by a mid-serialization SetUp
		r.txPkt = nil
		r.txPackets++
		r.txBytes += uint64(r.txSize)
	}
	r.sending = false
	if len(r.queue) > 0 {
		p := r.queue[0]
		r.queue = r.queue[1:]
		r.qlen -= r.size(p)
		r.transmit(p, now)
	}
}

func (r *refLink) deliver(now sim.Time) {
	p := r.inflight[0]
	r.inflight = r.inflight[1:]
	if p != nil {
		*r.log = append(*r.log, modelRec{kind: 'd', at: now, a: p.Seq, b: int64(p.Hdr.CE)})
	}
}

func (r *refLink) SetUp(up bool) {
	r.up = up
	if up {
		return
	}
	now := r.eng.Now()
	for _, p := range r.queue {
		r.drop(p, now)
	}
	r.queue, r.qlen = nil, 0
	if r.fab {
		r.dre.Reset()
	}
	if r.txPkt != nil {
		r.txPackets++
		r.txBytes += uint64(r.txSize)
		r.inflight[len(r.inflight)-1] = nil
		r.drop(r.txPkt, now)
		r.txPkt = nil
	}
}

// recNode is Link's destination in the model test: it logs deliveries.
type recNode struct{ log *[]modelRec }

func (n recNode) handle(p *Packet, _ *Link, now sim.Time) {
	*n.log = append(*n.log, modelRec{kind: 'd', at: now, a: p.Seq, b: int64(p.Hdr.CE)})
}

// modelOp is one scheduled action. Sends with chase > 0 also schedule a
// second send and a probe, from inside the event, chase serialization times
// later: if the first found the link idle, they arrive exactly as its claim
// expires, ordered after the claim's reserved sequence number — the other
// side of the tie from the pre-scheduled ops, which all order before it.
type modelOp struct {
	at      sim.Time
	kind    byte // 's' send, 'f' fail, 'r' restore, 'p' probe
	payload int
	chase   int
}

// runModel plays ops against one link model on a fresh engine and returns
// everything it observed, drops merged in by the caller's hook.
func runModel(ops []modelOp, rate float64, fab bool, until sim.Time, build func(*sim.Engine, *[]modelRec) (txLink, *core.DRE)) []modelRec {
	eng := sim.New()
	var log []modelRec
	l, dre := build(eng, &log)
	if fab {
		sim.NewTicker(eng, 3*sim.Microsecond, func(sim.Time) { dre.Decay() })
	}
	seq := int64(0)
	send := func(payload int, now sim.Time) sim.Time {
		seq++
		p := &Packet{Seq: seq, Payload: int32(payload)}
		size := p.WireSize()
		if fab {
			size = p.FabricWireSize()
		}
		l.Send(p, now)
		return sim.Time(float64(size) * 8 / rate * float64(sim.Second))
	}
	probe := func(now sim.Time) {
		log = append(log, modelRec{'p', now, int64(l.TxPackets()), int64(l.TxBytes()), int64(l.QueuedBytes())})
	}
	for _, op := range ops {
		op := op
		eng.At(op.at, func(now sim.Time) {
			switch op.kind {
			case 's':
				ser := send(op.payload, now)
				if op.chase > 0 {
					eng.At(now+sim.Time(op.chase)*ser, func(now sim.Time) {
						send(op.payload, now)
						probe(now)
					})
				}
			case 'f':
				l.SetUp(false)
			case 'r':
				l.SetUp(true)
			case 'p':
				probe(now)
			}
		})
	}
	eng.Run(until)
	probe(until) // outside any event: the instant with all its events done
	return log
}

// TestLinkMatchesReferenceModel drives Link and the discrete reference link
// with the same seeded random schedules — back-to-back bursts, sends landing
// exactly on a claim's expiry from both sides of its sequence number, tail
// drops into a two-packet buffer, cables pulled and restored
// mid-serialization and mid-queue, counter probes at random instants — and
// requires identical delivery times, CE marks, drop sets and probe values.
func TestLinkMatchesReferenceModel(t *testing.T) {
	const rate, prop = 8e9, 700 * sim.Nanosecond
	payloads := []int{6, 442, 1442} // wire 64, 500, 1500 bytes: 64, 500, 1500 ns at 8 Gb/s
	var dropped, queued int
	for seed := uint64(1); seed <= 400; seed++ {
		rng := sim.NewRand(seed)
		fab := seed%2 == 0
		unit := sim.Time(500)
		if fab {
			unit = 554 // 500 + EncapOverhead
		}
		var ops []modelOp
		at := sim.Time(0)
		for i := 0; i < 60; i++ {
			// Mostly grid-aligned instants, so busy periods end where other
			// ops sit; sometimes an arbitrary one.
			switch rng.Intn(4) {
			case 0:
				at += sim.Time(rng.Intn(3000))
			case 1: // same instant as the previous op: a burst
			default:
				at += unit * sim.Time(rng.Intn(4))
			}
			op := modelOp{at: at, kind: 's', payload: payloads[rng.Intn(3)]}
			switch r := rng.Intn(20); {
			case r < 2:
				op.kind = 'f'
			case r < 4:
				op.kind = 'r'
			case r < 8:
				op.kind = 'p'
			case r < 12:
				op.chase = 1 + rng.Intn(2)
			}
			ops = append(ops, op)
		}
		until := at + 20*sim.Microsecond
		maxQ := 2*1554 + rng.Intn(1554)

		tr := telemetry.New(telemetry.Options{Trace: true, TraceCap: 256}).Trace()
		got := runModel(ops, rate, fab, until, func(eng *sim.Engine, log *[]modelRec) (txLink, *core.DRE) {
			link := NewLink(eng, LinkConfig{Name: "dut", RateBps: rate, PropDelay: prop,
				BufBytes: maxQ, Fabric: fab, Params: core.DefaultParams()}, recNode{log})
			link.trace = tr
			if !fab {
				return link, nil
			}
			return link, &link.dre
		})
		for _, e := range tr.Events() {
			got = append(got, modelRec{kind: 'x', at: e.T, a: e.Seq})
		}
		want := runModel(ops, rate, fab, until, func(eng *sim.Engine, log *[]modelRec) (txLink, *core.DRE) {
			r := &refLink{eng: eng, rate: rate, prop: prop, maxQ: maxQ, fab: fab, up: true, log: log}
			if fab {
				r.dre = NewLinkDRE(rate, core.DefaultParams())
			}
			return r, r.dre
		})
		// Link's drops come from its trace, appended after the rest; give
		// the reference log the same shape before comparing.
		var rest, drops []modelRec
		for _, r := range want {
			if r.kind == 'x' {
				drops = append(drops, r)
			} else {
				rest = append(rest, r)
			}
		}
		want = append(rest, drops...)
		if !reflect.DeepEqual(got, want) {
			for i := range got {
				if i >= len(want) || got[i] != want[i] {
					t.Fatalf("seed %d (fabric %v): record %d differs\nlink:      %+v\nreference: %+v", seed, fab, i, got[i], want[min(i, len(want)-1)])
				}
			}
			t.Fatalf("seed %d: link logged %d records, reference %d", seed, len(got), len(want))
		}
		dropped += len(drops)
		for _, r := range got {
			if r.kind == 'p' && r.c > 0 {
				queued++
			}
		}
	}
	if dropped == 0 || queued == 0 {
		t.Fatalf("schedules too tame: %d drops, %d probes that saw a queue", dropped, queued)
	}
}

// TestLinkLayout pins the hot-state layout of DESIGN.md §3.10: everything
// Send, start and an arrival touch per packet sits in the struct's first
// four cache lines — claim and queue header in the first, the serialization
// memo closing the third, the DRE alone and whole in the fourth — the
// drain's node sits inside the fifth, and the cold fields (names, pools,
// set-up wiring, drop counters, trace hook) stay clear of the first three.
func TestLinkLayout(t *testing.T) {
	var l Link
	end := func(off, size uintptr) uintptr { return off + size }
	first := map[string]uintptr{
		"freeAt":    end(unsafe.Offsetof(l.freeAt), unsafe.Sizeof(l.freeAt)),
		"claimSeq":  end(unsafe.Offsetof(l.claimSeq), unsafe.Sizeof(l.claimSeq)),
		"up":        end(unsafe.Offsetof(l.up), unsafe.Sizeof(l.up)),
		"dreListed": end(unsafe.Offsetof(l.dreListed), unsafe.Sizeof(l.dreListed)),
		"eng":       end(unsafe.Offsetof(l.eng), unsafe.Sizeof(l.eng)),
		"queue":     end(unsafe.Offsetof(l.queue), unsafe.Sizeof(l.queue)),
	}
	if s := unsafe.Sizeof(l.queue); s != 16 {
		t.Errorf("queue header is %d bytes, want 16 (head and tail)", s)
	}
	for name, e := range first {
		if e > 64 {
			t.Errorf("send-path field %s ends at byte %d, past the first cache line", name, e)
		}
	}
	hot := map[string]uintptr{
		"rate":        end(unsafe.Offsetof(l.rate), unsafe.Sizeof(l.rate)),
		"prop":        end(unsafe.Offsetof(l.prop), unsafe.Sizeof(l.prop)),
		"dst":         end(unsafe.Offsetof(l.dst), unsafe.Sizeof(l.dst)),
		"xq":          end(unsafe.Offsetof(l.xq), unsafe.Sizeof(l.xq)),
		"wire":        end(unsafe.Offsetof(l.wire), unsafe.Sizeof(l.wire)),
		"txBytes":     end(unsafe.Offsetof(l.txBytes), unsafe.Sizeof(l.txBytes)),
		"drained":     end(unsafe.Offsetof(l.drained), unsafe.Sizeof(l.drained)),
		"tel":         end(unsafe.Offsetof(l.tel), unsafe.Sizeof(l.tel)),
		"serMemoSize": end(unsafe.Offsetof(l.serMemoSize), unsafe.Sizeof(l.serMemoSize)),
		"serMemoNs":   end(unsafe.Offsetof(l.serMemoNs), unsafe.Sizeof(l.serMemoNs)),
	}
	for name, e := range hot {
		if e > 192 {
			t.Errorf("per-packet field %s ends at byte %d, past the third cache line", name, e)
		}
	}
	if off, e := unsafe.Offsetof(l.dre), end(unsafe.Offsetof(l.dre), unsafe.Sizeof(l.dre)); off < 192 || e > 256 {
		t.Errorf("dre spans bytes %d–%d, want wholly inside the fourth cache line", off, e)
	}
	if off, e := unsafe.Offsetof(l.pathMetric), end(unsafe.Offsetof(l.pathMetric), unsafe.Sizeof(l.pathMetric)); off < 192 || e > 256 {
		t.Errorf("pathMetric spans bytes %d–%d, want beside the dre in the fourth cache line", off, e)
	}
	if off := unsafe.Offsetof(l.drainEv); off%64+unsafe.Sizeof(l.drainEv) > 64 {
		t.Errorf("drainEv at byte %d straddles a cache line", off)
	}
	cold := map[string]uintptr{
		"Name":      unsafe.Offsetof(l.Name),
		"pool":      unsafe.Offsetof(l.pool),
		"dom":       unsafe.Offsetof(l.dom),
		"gen":       unsafe.Offsetof(l.gen),
		"Drops":     unsafe.Offsetof(l.Drops),
		"DropBytes": unsafe.Offsetof(l.DropBytes),
		"trace":     unsafe.Offsetof(l.trace),
	}
	for name, off := range cold {
		if off < 192 {
			t.Errorf("cold field %s at byte %d sits among the per-packet fields", name, off)
		}
	}
	if s := unsafe.Sizeof(l); s > 360 {
		t.Errorf("Link is %d bytes, want ≤ 360", s)
	}
}

// TestHopCostsOneEvent pins the event contract of DESIGN.md §3.9: every
// start commits exactly one arrival event, plus one drain per start made
// from the queue. One packet from host 0 to host 63 across an otherwise
// empty testbed finds all four links idle — the case the deleted hop chain
// collapsed into the arrival before it — and, run through the first DRE
// decay tick, executes the injector, one arrival per hop and that tick.
func TestHopCostsOneEvent(t *testing.T) {
	reg := telemetry.New(telemetry.Options{Counters: true})
	eng := sim.New()
	params := core.DefaultParams()
	n := MustNetwork(eng, Config{NumLeaves: 2, NumSpines: 2, HostsPerLeaf: 32, LinksPerSpine: 2,
		AccessRateBps: 10e9, FabricRateBps: 40e9, Scheme: SchemeCONGA,
		Params: params, Seed: 1, Telemetry: reg})
	sink := &testSink{}
	n.Hosts[63].Bind(7777, sink)
	eng.At(0, func(now sim.Time) {
		n.Hosts[0].Send(&Packet{FlowID: 1, DstHost: 63, SrcPort: 1, DstPort: 7777, Payload: 1000}, now)
	})
	eng.Run(params.TDRE)
	if sink.packets != 1 {
		t.Fatalf("delivered %d packets, want 1", sink.packets)
	}
	if got := eng.Executed(); got != 6 {
		t.Errorf("executed %d events, want 6: the injector, four arrivals and one tick", got)
	}
	reg.Collect()
	starts := map[string]uint64{}
	for _, row := range reg.EngineRows() {
		starts[row.Counter] = row.Value
	}
	// The wheel took every event (nothing went to the far heap). Each arrival
	// is less than one 4.1 µs block ahead, so it was placed once, in level 0
	// (the one at 5.3 µs in the window's second block), and the tick's bucket
	// comes down only when the window reaches it. So the only buckets moved
	// down a level, one event each, are the DRE tick's (20 µs) and that of
	// the tick it re-armed, which the bounded Run peeks at past its end. The
	// packet was built by hand, so the pool handed out nothing.
	want := map[string]uint64{"link_starts": 4, "link_starts_drained": 0,
		"cascades": 2, "requeued": 2, "far_pushes": 0, "packet_allocs": 0, "packet_recycled": 0}
	if !reflect.DeepEqual(starts, want) {
		t.Errorf("engine group %v, want %v", starts, want)
	}
}

// TestSerializationMemoExact: the two-entry memo in front of start's divide
// must be invisible. Size streams that hit, swap, miss and evict — full
// segments, 64-byte ACKs, odd tail segments — cross access and fabric links
// at round rates and one that is not; some sends find the link idle and some
// queue in bursts behind a claim. Every committed arrival must land at
// start + Time(float64(size)·8/rate·1e9) + prop, the formula evaluated here,
// where a packet starts when it is sent or when the one before it finishes
// serializing, whichever is later.
func TestSerializationMemoExact(t *testing.T) {
	const prop = 700 * sim.Nanosecond
	payloads := []int{1460, 0, 1460, 517, 0, 1460, 517, 517, 1, 1460, 8942, 0, 1, 8942, 1460, 1460, 0, 333, 0, 1460}
	for _, gbps := range []float64{1, 10, 40, 100, 37.5} {
		for _, fab := range []bool{false, true} {
			rate := gbps * 1e9
			eng := sim.New()
			var log []modelRec
			l := NewLink(eng, LinkConfig{Name: "memo", RateBps: rate, PropDelay: prop, BufBytes: 1 << 20,
				Fabric: fab, Params: core.DefaultParams()}, recNode{&log})
			var want []sim.Time
			var free sim.Time // the model's serialization end of the packet before
			rng := sim.NewRand(uint64(gbps*8) + 1)
			at := sim.Time(0)
			for i := 0; i < 400; i++ {
				// Three sends in four follow within a fraction of a
				// serialization time, so runs of them queue; the fourth waits
				// for the link to go idle.
				if rng.Intn(4) == 0 {
					at = free + sim.Time(rng.Intn(3000))
				} else {
					at += sim.Time(rng.Intn(40))
				}
				p := &Packet{Seq: int64(i), Payload: int32(payloads[(i+rng.Intn(2))%len(payloads)])}
				size := p.WireSize()
				if fab {
					size = p.FabricWireSize()
				}
				start := at
				if free > start {
					start = free
				}
				free = start + sim.Time(float64(size)*8/rate*float64(sim.Second))
				want = append(want, free+prop)
				eng.At(at, func(now sim.Time) { l.Send(p, now) })
			}
			eng.Run(sim.MaxTime)
			if l.Drops != 0 || len(log) != len(want) {
				t.Fatalf("%v Gbps fab=%v: %d arrivals, %d drops, want %d and none", gbps, fab, len(log), l.Drops, len(want))
			}
			if l.drained == 0 || l.drained == l.txPackets {
				t.Fatalf("%v Gbps fab=%v: %d of %d starts drained, want both kinds", gbps, fab, l.drained, l.txPackets)
			}
			for i, rec := range log {
				if rec.a != int64(i) || rec.at != want[i] {
					t.Fatalf("%v Gbps fab=%v: arrival %d is packet %d at %v, want packet %d at %v",
						gbps, fab, i, rec.a, rec.at, i, want[i])
				}
			}
		}
	}
}
