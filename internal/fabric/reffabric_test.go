package fabric

import (
	"container/heap"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"conga/internal/core"
	"conga/internal/sim"
	"conga/internal/telemetry"
)

// The reference fabric: the same ECMP leaf-spine, written as plainly as the
// paper describes it and sharing no mechanism with the production one. A
// container/heap of closures is its engine; its links are discrete, with a
// sending flag and one tx-done and one delivery event per packet; packets are
// plain structs, routing looks links up by name, every DRE decays on every
// tick, and there is no pool, memo, prefetch, claim or cache. Production and
// reference run the same paced sources, and every packet's per-hop record
// must be the same on both.

// pktKey names a packet on both fabrics: its source's flow and its number
// within the flow.
type pktKey struct {
	flow uint64
	seq  int64
}

// hop is one thing that happened to a packet: it arrived at the far end of
// link at time at, carrying the overlay header's CE and LBTag, or it was
// dropped by link at at.
type hop struct {
	at      sim.Time
	link    string
	ce, tag uint8
	drop    bool
}

type hopLog map[pktKey][]hop

func (l hopLog) add(k pktKey, h hop) { l[k] = append(l[k], h) }

// refEvent and refQueue make the reference engine: (time, seq) order, seq
// taken at every schedule call.
type refEvent struct {
	at  sim.Time
	seq uint64
	fn  func(sim.Time)
}

type refQueue []refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	return q[i].at < q[j].at || (q[i].at == q[j].at && q[i].seq < q[j].seq)
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	ev := old[len(old)-1]
	*q = old[:len(old)-1]
	return ev
}

type refEngine struct {
	q   refQueue
	seq uint64
}

func (e *refEngine) at(t sim.Time, fn func(sim.Time)) {
	heap.Push(&e.q, refEvent{t, e.seq, fn})
	e.seq++
}

// run executes every event at or before until.
func (e *refEngine) run(until sim.Time) {
	for len(e.q) > 0 && e.q[0].at <= until {
		ev := heap.Pop(&e.q).(refEvent)
		ev.fn(ev.at)
	}
}

type refPkt struct {
	key          pktKey
	src, dst     int
	sport, dport int
	payload      int
	ce, tag      uint8
}

func (p *refPkt) size(fab bool) int {
	s := max(p.payload+HeaderOverhead, MinFrame)
	if fab {
		s += core.EncapOverhead
	}
	return s
}

// refLinkFab is a discrete drop-tail link: a packet found idle starts at once
// and schedules its tx-done, then its delivery (the order Link reserves its
// claim and commits the arrival in); tx-done starts the queue head.
type refLinkFab struct {
	name       string
	eng        *refEngine
	rate       float64
	prop       sim.Time
	maxQ, qlen int
	dre        *core.DRE // fabric links only
	sending    bool
	queue      []*refPkt
	to         func(p *refPkt, now sim.Time)
	log        hopLog
}

func (l *refLinkFab) send(p *refPkt, now sim.Time) {
	switch {
	case !l.sending:
		l.transmit(p, now)
	case l.qlen+p.size(l.dre != nil) > l.maxQ:
		l.log.add(p.key, hop{at: now, link: l.name, drop: true})
	default:
		l.queue = append(l.queue, p)
		l.qlen += p.size(l.dre != nil)
	}
}

func (l *refLinkFab) transmit(p *refPkt, now sim.Time) {
	l.sending = true
	size := p.size(l.dre != nil)
	if l.dre != nil {
		p.ce = core.MarkCE(core.PathMetricMax, p.ce, l.dre.Quantized())
		l.dre.Add(size)
	}
	end := now + sim.Time(float64(size)*8/l.rate*float64(sim.Second))
	l.eng.at(end, l.txDone)
	l.eng.at(end+l.prop, func(now sim.Time) {
		l.log.add(p.key, hop{at: now, link: l.name, ce: p.ce, tag: p.tag})
		l.to(p, now)
	})
}

func (l *refLinkFab) txDone(now sim.Time) {
	l.sending = false
	if len(l.queue) > 0 {
		p := l.queue[0]
		l.queue = l.queue[1:]
		l.qlen -= p.size(l.dre != nil)
		l.transmit(p, now)
	}
}

// refNet builds the reference fabric for cfg (which has its defaults
// filled in) on eng, logging into log, and returns its links by name.
func refNet(cfg Config, eng *refEngine, log hopLog) map[string]*refLinkFab {
	links := map[string]*refLinkFab{}
	hpl, lps := cfg.HostsPerLeaf, cfg.LinksPerSpine
	link := func(name string, rate float64, prop sim.Time, buf int, fab bool, to func(*refPkt, sim.Time)) {
		l := &refLinkFab{name: name, eng: eng, rate: rate, prop: prop, maxQ: buf, to: to, log: log}
		if fab {
			l.dre = core.NewDRE(rate, cfg.Params)
		}
		links[name] = l
	}
	hash := func(p *refPkt) uint64 { return HashFlow(p.key.flow, p.src, p.dst, p.sport, p.dport) }
	for h := 0; h < cfg.NumLeaves*hpl; h++ {
		leaf := h / hpl
		link(fmt.Sprintf("h%d->l%d", h, leaf), cfg.AccessRateBps, cfg.AccessPropDelay, cfg.HostBufBytes, false,
			func(p *refPkt, now sim.Time) { // ECMP ingress leaf: every uplink is up
				if dl := p.dst / hpl; dl == leaf {
					links[fmt.Sprintf("l%d->h%d", leaf, p.dst)].send(p, now)
				} else {
					up := int(hash(p) % uint64(cfg.NumSpines*lps))
					p.ce, p.tag = 0, uint8(up)
					links[fmt.Sprintf("l%d->s%d.%d", leaf, up/lps, up%lps)].send(p, now)
				}
			})
		link(fmt.Sprintf("l%d->h%d", leaf, h), cfg.AccessRateBps, cfg.AccessPropDelay, cfg.EdgeBufBytes, false,
			func(*refPkt, sim.Time) {})
	}
	for leaf := 0; leaf < cfg.NumLeaves; leaf++ {
		for s := 0; s < cfg.NumSpines; s++ {
			for k := 0; k < lps; k++ {
				link(fmt.Sprintf("l%d->s%d.%d", leaf, s, k), cfg.FabricRateBps, cfg.FabricPropDelay, cfg.FabricBufBytes, true,
					func(p *refPkt, now sim.Time) { // the spine hashes over its links to the destination leaf
						links[fmt.Sprintf("s%d.%d->l%d", s, hash(p)%uint64(lps), p.dst/hpl)].send(p, now)
					})
				link(fmt.Sprintf("s%d.%d->l%d", s, k, leaf), cfg.FabricRateBps, cfg.FabricPropDelay, cfg.FabricBufBytes, true,
					func(p *refPkt, now sim.Time) { links[fmt.Sprintf("l%d->h%d", leaf, p.dst)].send(p, now) })
			}
		}
	}
	// DRE decay, created first as NewNetwork creates its ticker.
	var tick func(sim.Time)
	tick = func(now sim.Time) {
		for _, l := range links {
			if l.dre != nil {
				l.dre.Decay()
			}
		}
		eng.at(now+cfg.Params.TDRE, tick)
	}
	eng.at(cfg.Params.TDRE, tick)
	return links
}

// pacedSource is a null-transport flow: each firing sends a burst of 1–8
// packets back to back, then waits one of the first gaps gaps, from 0.3 µs
// (several firings per level-0 block) to 120 µs (idle stretches the wheel
// crosses by cascading). A source offered only the three short ones sends
// faster than an access link drains.
type pacedSource struct {
	flow     uint64
	src, dst int
	gaps     int
}

var (
	refGaps     = [...]sim.Time{300, 1500, 5 * sim.Microsecond, 30 * sim.Microsecond, 120 * sim.Microsecond}
	refPayloads = [...]int{6, 442, 1442} // 64-, 500- and 1500-byte frames
)

// pace starts s on one engine; both fabrics draw the same sequence from seed.
func (s pacedSource) pace(seed uint64, at func(sim.Time, func(sim.Time)), send func(seq int64, payload int, now sim.Time)) {
	rng := sim.NewRand(seed)
	seq := int64(0)
	var fire func(sim.Time)
	fire = func(now sim.Time) {
		for i := rng.Intn(8); i >= 0; i-- {
			seq++
			send(seq, refPayloads[rng.Intn(len(refPayloads))], now)
		}
		at(now+refGaps[rng.Intn(s.gaps)], fire)
	}
	at(sim.Time(rng.Intn(5000)), fire)
}

// loggingNode wraps a production link's destination.
type loggingNode struct {
	next node
	log  hopLog
}

func (n *loggingNode) handle(p *Packet, from *Link, now sim.Time) {
	n.log.add(pktKey{p.FlowID, p.Seq}, hop{at: now, link: from.Name, ce: p.Hdr.CE, tag: p.Hdr.LBTag})
	n.next.handle(p, from, now)
}

// TestFabricMatchesReference compares every packet's records on both topologies.
func TestFabricMatchesReference(t *testing.T) {
	const until = 45 * sim.Millisecond // ≥ 10⁴ level-0 blocks, 21 level-1 window ends
	small := Config{EdgeBufBytes: 8 << 10, FabricBufBytes: 6 << 10, HostBufBytes: 24 << 10, Scheme: SchemeECMP}
	quick, testbed := small, small
	quick.NumLeaves, quick.NumSpines, quick.HostsPerLeaf, quick.LinksPerSpine = 2, 2, 8, 2
	quick.AccessRateBps, quick.FabricRateBps = 1e9, 4e9
	for _, tc := range []struct {
		name     string
		cfg      Config
		sources  int
		fastGaps int // the gaps source 0 draws from: 3 outruns a 10 Gb/s access link
	}{{"quick-2x2", quick, 8, len(refGaps)}, {"testbed-64", testbed, 16, 3}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg.WithDefaults()
			hosts := cfg.NumLeaves * cfg.HostsPerLeaf
			rng := sim.NewRand(7)
			var srcs []pacedSource
			for i := 0; i < tc.sources; i++ {
				s := pacedSource{flow: uint64(i + 1), src: rng.Intn(hosts), gaps: len(refGaps)}
				switch {
				case i == 0: // across the fabric into host 0: CE marks, queues, drops
					s.src, s.gaps = hosts-1, tc.fastGaps
				case i%3 != 0: // a third of the rest converge on host 0 too
					s.dst = rng.Intn(hosts)
				}
				if s.dst == s.src {
					s.dst = (s.src + hosts/2) % hosts
				}
				srcs = append(srcs, s)
			}

			eng := sim.New()
			n := MustNetwork(eng, cfg)
			got := hopLog{}
			tr := telemetry.New(telemetry.Options{Trace: true, TraceCap: 1 << 18}).Trace()
			n.eachLink(func(l *Link) {
				l.dst = &loggingNode{next: l.dst, log: got}
				l.trace = tr
			})
			for i, s := range srcs {
				s.pace(uint64(100+i), func(at sim.Time, fn func(sim.Time)) { eng.At(at, fn) },
					func(seq int64, payload int, now sim.Time) {
						h := n.Hosts[s.src]
						p := h.NewPacket()
						p.FlowID, p.DstHost, p.SrcPort, p.DstPort, p.Seq, p.Payload = s.flow, s.dst, 1000+int(s.flow), 80, seq, payload
						h.Send(p, now)
					})
			}
			eng.Run(until)
			if info := tr.Info(); info.Suppressed != 0 {
				t.Fatalf("drop trace overflowed (%d suppressed)", info.Suppressed)
			}
			for _, ev := range tr.Events() { // a drop is always a packet's last record
				got.add(pktKey{ev.FlowID, ev.Seq}, hop{at: ev.T, link: ev.Where, drop: true})
			}

			ref := &refEngine{}
			want := hopLog{}
			links := refNet(cfg, ref, want)
			for i, s := range srcs {
				s.pace(uint64(100+i), ref.at, func(seq int64, payload int, now sim.Time) {
					p := &refPkt{key: pktKey{s.flow, seq}, src: s.src, dst: s.dst, sport: 1000 + int(s.flow), dport: 80, payload: payload}
					links[fmt.Sprintf("h%d->l%d", s.src, s.src/cfg.HostsPerLeaf)].send(p, now)
				})
			}
			ref.run(until)

			var drained, marked uint64
			n.eachLink(func(l *Link) { drained += l.drained })
			keys := make([]pktKey, 0, len(want))
			for k, hs := range want {
				keys = append(keys, k)
				for _, h := range hs {
					marked += uint64(h.ce)
				}
			}
			if len(want) < 10000 || len(tr.Events()) == 0 || drained == 0 || marked == 0 || eng.Cascades() == 0 {
				t.Fatalf("traffic too tame: %d packets, %d drops, %d drained starts, CE sum %d, %d cascades",
					len(want), len(tr.Events()), drained, marked, eng.Cascades())
			}
			if reflect.DeepEqual(got, want) {
				return
			}
			for k := range got {
				if _, ok := want[k]; !ok {
					keys = append(keys, k)
				}
			}
			sort.Slice(keys, func(i, j int) bool {
				return keys[i].flow < keys[j].flow || (keys[i].flow == keys[j].flow && keys[i].seq < keys[j].seq)
			})
			for _, k := range keys {
				if !reflect.DeepEqual(got[k], want[k]) {
					t.Fatalf("flow %d packet %d:\nproduction %+v\nreference  %+v", k.flow, k.seq, got[k], want[k])
				}
			}
		})
	}
}
