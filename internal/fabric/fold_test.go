package fabric

import (
	"testing"

	"conga/internal/core"
	"conga/internal/sim"
	"conga/internal/telemetry"
)

// frameLog records every packet a node receives, as the packet it is with
// its node and link cleared, and releases it to its pool.
type frameLog struct {
	pool *PacketPool
	got  []frameRec
}

type frameRec struct {
	at sim.Time
	p  Packet
}

func (r *frameLog) handle(p *Packet, _ *Link, now sim.Time) {
	q := *p
	q.ev, q.link = sim.Node{}, nil
	r.got = append(r.got, frameRec{now, q})
	r.pool.Put(p)
}

func (r *frameLog) Receive(p *Packet, now sim.Time) {
	q := *p
	q.ev, q.link = sim.Node{}, nil
	r.got = append(r.got, frameRec{now, q})
}

// groupsInUse is how many of the pool's frame groups some train holds.
func (pp *PacketPool) groupsInUse() int { return len(pp.groups) - pp.freeGroupCount() }

// TestHostBacklogIsOnePacket: 64 segments of one flow, stamped over 32
// instants, queued behind a NIC another flow's packet has claimed, are held
// as one packet and 32 frame groups. They drain to the 64 frames that were
// sent, field for field, and once the pool and slab are warm a burst of them
// allocates nothing.
func TestHostBacklogIsOnePacket(t *testing.T) {
	eng := sim.New()
	n := MustNetwork(eng, smallTestConfig(SchemeECMP))
	src, dst := n.Host(0), n.Host(1) // one rack: the leaf switches locally
	sink := &frameLog{got: make([]frameRec, 0, 65)}
	dst.Bind(9000, sink)
	pool := n.pool
	var want []Packet
	burst := func() {
		now := eng.Now()
		claim := src.NewPacket()
		claim.FlowID, claim.DstHost, claim.DstPort, claim.Payload = 2, dst.ID, 9000, 100
		src.Send(claim, now)
		want = want[:0]
		for i := range 64 {
			p := src.NewPacket()
			p.FlowID, p.DstHost, p.SrcPort, p.DstPort = 1, dst.ID, 4000, 9000
			p.Seq, p.Payload, p.SentAt = int64(i)*1460, 1460, now-sim.Time(32-i/2)*sim.Microsecond
			p.SetLBHash(0xfeed)
			want = append(want, *p)
			src.Send(p, now)
		}
	}
	drain := func() {
		sink.got = sink.got[:0]
		eng.Run(eng.Now() + 2*sim.Millisecond)
	}

	burst()
	l := src.out
	packets := 0
	for q := l.queue.Head(); q != nil; q = q.Next() {
		packets++
	}
	if packets != 1 || pool.groupsInUse() != 32 || l.queued() != 64 {
		t.Fatalf("backlog of 64 segments over 32 instants is %d packets, %d frame groups, %d frames; want 1, 32, 64",
			packets, pool.groupsInUse(), l.queued())
	}
	if err := l.checkQueue(eng.Now()); err != nil {
		t.Fatalf("folded queue: %v", err)
	}
	drain()
	if len(sink.got) != 65 {
		t.Fatalf("%d packets delivered, want the claim and 64 frames", len(sink.got))
	}
	for i, r := range sink.got[1:] {
		w := want[i]
		w.ev, w.link, w.SrcHost = sim.Node{}, nil, int32(src.ID)
		if r.p != w {
			t.Fatalf("frame %d delivered as\n%+v\nsent as\n%+v", i, r.p, w)
		}
	}
	if pool.groupsInUse() != 0 || l.queued() != 0 {
		t.Fatalf("drained NIC holds %d frame groups, %d frames", pool.groupsInUse(), l.queued())
	}
	if a := testing.AllocsPerRun(20, func() { burst(); drain() }); a != 0 {
		t.Errorf("a warm backlog burst allocates %v objects, want 0", a)
	}
	if len(sink.got) != 65 {
		t.Fatalf("a repeated burst delivered %d packets, want 65", len(sink.got))
	}
}

// TestSetUpDropsFoldedBacklogPerFrame fails a NIC holding a folded backlog
// — full frames over three instants and a short last one — behind a packet
// on the wire. Drops, DropBytes and the packet trace count each frame on
// its own, as they would have counted each queued packet, and every frame
// group goes back to the slab.
func TestSetUpDropsFoldedBacklogPerFrame(t *testing.T) {
	eng := sim.New()
	cfg := smallTestConfig(SchemeECMP)
	cfg.Telemetry = telemetry.New(telemetry.Options{Counters: true, Trace: true, TraceCap: 1 << 10})
	n := MustNetwork(eng, cfg)
	src, dst := n.Host(0), n.Host(4)
	l := src.out
	eng.At(sim.Microsecond, func(now sim.Time) {
		for i := range 11 {
			p := src.NewPacket()
			p.FlowID, p.DstHost, p.DstPort = 1, dst.ID, 9000
			p.Seq, p.Payload, p.SentAt = int64(i)*1000, 1000, sim.Time(i/4)
			if i == 10 {
				p.Payload = 300
			}
			src.Send(p, now)
		}
		if l.queued() != 10 || n.pool.groupsInUse() != 3 {
			t.Fatalf("backlog holds %d frames in %d groups, want 10 in 3", l.queued(), n.pool.groupsInUse())
		}
		l.SetUp(false)
	})
	eng.Run(sim.Millisecond)

	wantBytes := uint64(1+9)*(1000+HeaderOverhead) + 300 + HeaderOverhead // the wire victim, 9 full frames, the short one
	if l.Drops != 11 || l.DropBytes != wantBytes || l.tel.Drops != 11 {
		t.Fatalf("Drops %d, DropBytes %d, telemetry %d; want 11, %d, 11", l.Drops, l.DropBytes, l.tel.Drops, wantBytes)
	}
	var seqs []int64
	for _, ev := range cfg.Telemetry.Trace().Events() {
		if ev.Kind == telemetry.TraceDrop && ev.Where == l.Name {
			seqs = append(seqs, ev.Seq)
		}
	}
	if len(seqs) != 11 {
		t.Fatalf("trace holds %d drops on %s, want 11", len(seqs), l.Name)
	}
	for i, s := range seqs { // the flushed frames in order, then the wire victim
		if want := int64(i+1) * 1000 % 11000; s != want {
			t.Fatalf("drop %d traced at Seq %d, want %d", i, s, want)
		}
	}
	if l.queued() != 0 || l.qlen != 0 || n.pool.groupsInUse() != 0 {
		t.Fatalf("failed NIC holds %d frames, %d bytes, %d frame groups", l.queued(), l.qlen, n.pool.groupsInUse())
	}
	if err := src.checkConserved(); err != nil {
		t.Fatal(err)
	}
}

// hostNIC is a host whose access link delivers into a frameLog, on an
// engine and pool of its own.
type hostNIC struct {
	eng *sim.Engine
	h   *Host
	log *frameLog
}

func newHostNIC(buf int) *hostNIC {
	eng, pool := sim.New(), &PacketPool{}
	log := &frameLog{pool: pool}
	h := newHost(0, 0, pool)
	h.out = NewLink(eng, LinkConfig{Name: "h0->l0", RateBps: 1e9, PropDelay: sim.Microsecond,
		BufBytes: buf, Params: core.DefaultParams(), Pool: pool}, log)
	return &hostNIC{eng, h, log}
}

// FuzzHostQueueMatchesLink drives one stream of segments into a host NIC
// through Host.Send, which folds, and into a twin NIC through plain
// Link.Send, which queues every packet. The stream mixes three flows and
// their ACKs, equal and unequal SentAt stamps, short segments, gaps in Seq,
// packets sharing a flow ID but differing in one other field, link failures
// and restores, and a small buffer, so tail drops interleave with folds.
// Every arrival at the leaf end, with its time and every field, and the
// drop counts must be equal; the folded NIC's queue must pass checkQueue
// and conserve packets after every step.
func FuzzHostQueueMatchesLink(f *testing.F) {
	f.Add(uint16(0), []byte{0, 0, 0, 1, 0, 2, 8, 40, 0, 3, 3, 7, 5, 0, 0, 0})
	f.Add(uint16(4000), []byte{0, 0, 0, 0, 0, 0, 0, 1, 0, 2, 3, 200, 0, 0, 4, 0, 0, 0, 8, 255, 0, 0})
	f.Add(uint16(20000), []byte{0, 0, 16, 0, 32, 0, 0, 1, 6, 1, 6, 2, 6, 3, 6, 4, 0, 0, 5, 0, 0, 0, 7, 3, 0, 0, 7, 3, 0, 0, 8, 9})
	f.Add(uint16(1), []byte{0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 7, 0, 0, 0, 8, 100, 0, 0})
	f.Fuzz(func(t *testing.T, bufSel uint16, ops []byte) {
		const mss = 1000
		buf := 1200 + int(bufSel)%24000
		a, b := newHostNIC(buf), newHostNIC(buf)
		var seq [3]int64
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], ops[i+1]
			flow, kind := int(op>>4)%3, op&7
			if op&8 != 0 {
				until := a.eng.Now() + sim.Time(arg)*40*sim.Nanosecond
				a.eng.Run(until)
				b.eng.Run(until)
			}
			now := a.eng.Now()
			if kind == 7 && arg < 16 {
				a.h.out.SetUp(!a.h.out.up)
				b.h.out.SetUp(!b.h.out.up)
			} else {
				p := Packet{FlowID: uint64(flow + 1), DstHost: 4, SrcPort: 100 + flow, DstPort: 9000,
					Seq: seq[flow], Payload: mss, SentAt: sim.Time(arg&3) * 1000}
				p.SetLBHash(uint64(flow) + 11)
				switch kind {
				case 3: // a short segment
					p.Payload = 1 + int32(arg)*3%mss
				case 4: // a gap in Seq
					p.Seq += 500
				case 5: // an ACK of the flow
					p.IsAck, p.Payload, p.AckNo = true, 0, int64(arg)*mss
				case 6: // one field other than Seq, Payload and SentAt differs
					switch arg % 5 {
					case 0:
						p.DstPort++
					case 1:
						p.SrcPort++
					case 2:
						p.lbHash++
					case 3:
						p.DstHost++
					case 4:
						p.AckNo = 1
					}
				}
				seq[flow] = p.Seq + int64(p.Payload)
				pa, pb := a.h.NewPacket(), b.h.NewPacket()
				*pa, *pb = p, p
				pa.pooled, pb.pooled = true, true
				pb.SrcHost = int32(b.h.ID)
				a.h.Send(pa, now)
				b.h.out.Send(pb, now)
			}
			la, lb := a.h.out, b.h.out
			if err := la.checkQueue(now); err != nil {
				t.Fatalf("op %d: folded NIC: %v", i/2, err)
			}
			if err := a.h.checkConserved(); err != nil {
				t.Fatalf("op %d: folded NIC: %v", i/2, err)
			}
			if la.queued() != lb.queued() || la.qlen != lb.qlen || la.Drops != lb.Drops {
				t.Fatalf("op %d: folded NIC queues %d frames (%d B), dropped %d; plain NIC %d (%d B), %d",
					i/2, la.queued(), la.qlen, la.Drops, lb.queued(), lb.qlen, lb.Drops)
			}
		}
		a.eng.Run(sim.MaxTime)
		b.eng.Run(sim.MaxTime)
		la, lb := a.h.out, b.h.out
		if la.Drops != lb.Drops || la.DropBytes != lb.DropBytes || la.txPackets != lb.txPackets || la.txBytes != lb.txBytes {
			t.Fatalf("folded NIC sent %d (%d B), dropped %d (%d B); plain NIC %d (%d B), %d (%d B)",
				la.txPackets, la.txBytes, la.Drops, la.DropBytes, lb.txPackets, lb.txBytes, lb.Drops, lb.DropBytes)
		}
		if len(a.log.got) != len(b.log.got) {
			t.Fatalf("folded NIC delivered %d packets, plain NIC %d", len(a.log.got), len(b.log.got))
		}
		for i := range a.log.got {
			if a.log.got[i] != b.log.got[i] {
				t.Fatalf("arrival %d: folded NIC\n%+v\nplain NIC\n%+v", i, a.log.got[i], b.log.got[i])
			}
		}
		if inUse := a.h.pool.groupsInUse(); inUse != 0 {
			t.Fatalf("%d frame groups held after the drain", inUse)
		}
		if err := a.h.checkConserved(); err != nil {
			t.Fatal(err)
		}
	})
}
