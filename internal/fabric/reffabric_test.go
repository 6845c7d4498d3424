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

// The reference fabric: the same leaf-spine, written as plainly as the paper
// describes it and sharing no mechanism with the production one. A
// container/heap of closures is its engine; its links are discrete, with a
// sending flag and one tx-done and one delivery event per packet; packets are
// plain structs, routing looks links up by name, every DRE decays on every
// tick, and there is no pool, memo, prefetch, claim or cache. Its leaves run
// ECMP, spray, CONGA or CONGA-Flow; the CONGA state is plain maps, with no
// code shared with core.Leaf. Production and reference run the same paced
// sources, and every packet's per-hop record must be the same on both.

// pktKey names a packet on both fabrics: its source's flow and its number
// within the flow.
type pktKey struct {
	flow uint64
	seq  int64
}

// hop is one thing that happened to a packet: it arrived at the far end of
// link at time at, carrying the overlay header's CE, LBTag and piggybacked
// feedback, or it was dropped by link at at.
type hop struct {
	at      sim.Time
	link    string
	ce, tag uint8
	fb      refFB
	drop    bool
}

// refFB is the header's feedback triple: FBValid, FBLBTag and FBMetric.
type refFB struct {
	valid       bool
	tag, metric uint8
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
	fb           refFB
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
		l.log.add(p.key, hop{at: now, link: l.name, ce: p.ce, tag: p.tag, fb: p.fb})
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

// refLeaf is a reference leaf's load balancer. For CONGA the flowlet table
// is a map by slot and the congestion tables maps by (peer, uplink or
// LBTag); an absent key is an entry nothing has written.
type refLeaf struct {
	scheme  Scheme
	p       core.Params
	uplinks []*refLinkFab // index = LBTag
	rng     *sim.Rand
	next    int                  // spray's round-robin cursor
	slots   map[int]*refFlowlet  // by hash % FlowletTableSize
	to      map[[2]int]refMetric // [dstLeaf, uplink]: remote path metrics
	from    map[[2]int]refMetric // [srcLeaf, LBTag]: CE seen, waiting to be fed back
	changed map[[2]int]bool      // from entries that moved since last fed back
	cursor  map[int]int          // per peer: the LBTag the feedback scan starts at
}

type refFlowlet struct {
	port       int // −1 until a flowlet used the slot
	valid, age bool
}

type refMetric struct {
	v  uint8
	at sim.Time
}

// aged is §3.3's aging rule: the full value for AgeTimeout after the update,
// then a linear decay to zero over a further AgeTimeout.
func (m refMetric) aged(now, timeout sim.Time) uint8 {
	idle := now - m.at
	switch {
	case idle <= timeout:
		return m.v
	case idle-timeout >= timeout:
		return 0
	}
	return uint8(float64(m.v) * (float64(timeout-(idle-timeout)) / float64(timeout)))
}

func (r *refLeaf) conga() bool { return r.scheme == SchemeCONGA || r.scheme == SchemeCONGAFlow }

// pick chooses the uplink for a packet to dstLeaf and fills its header.
func (r *refLeaf) pick(p *refPkt, hash uint64, dstLeaf int, now sim.Time) *refLinkFab {
	up := 0
	switch r.scheme {
	case SchemeECMP:
		up = int(hash % uint64(len(r.uplinks)))
	case SchemeSpray:
		up = r.next % len(r.uplinks)
		r.next = up + 1
	default:
		up = r.flowlet(hash, dstLeaf, now)
	}
	p.ce, p.tag = 0, uint8(up)
	if r.conga() {
		p.fb = r.feedback(dstLeaf, now)
	}
	return r.uplinks[up]
}

// flowlet is §3.4's table lookup and, for the first packet of a flowlet,
// §3.5's decision: the uplink minimizing max(local DRE, remote metric),
// keeping the slot's previous uplink on a tie, else a uniform draw among the
// minima.
func (r *refLeaf) flowlet(hash uint64, dstLeaf int, now sim.Time) int {
	slot := int(hash % uint64(r.p.FlowletTableSize))
	f := r.slots[slot]
	if f == nil {
		f = &refFlowlet{port: -1}
		r.slots[slot] = f
	}
	if f.valid {
		f.age = false
		return f.port
	}
	cost := make([]uint8, len(r.uplinks))
	best, count := 256, 0
	for u, l := range r.uplinks {
		cost[u] = max(l.dre.Quantized(), r.to[[2]int{dstLeaf, u}].aged(now, r.p.AgeTimeout))
		if c := int(cost[u]); c < best {
			best, count = c, 1
		} else if c == best {
			count++
		}
	}
	choice := f.port
	if choice < 0 || int(cost[choice]) != best {
		k := r.rng.Intn(count)
		for u, c := range cost {
			if int(c) != best {
				continue
			}
			if k == 0 {
				choice = u
				break
			}
			k--
		}
	}
	*f = refFlowlet{port: choice, valid: true}
	return choice
}

// feedback picks the metric to piggyback toward dstLeaf: scanning LBTags
// round-robin from the peer's cursor, the first entry that changed since it
// was last fed back, else the first one ever observed.
func (r *refLeaf) feedback(dstLeaf int, now sim.Time) refFB {
	n, start := r.p.MaxUplinks, r.cursor[dstLeaf]
	for _, wantChanged := range []bool{true, false} {
		for i := 0; i < n; i++ {
			k := [2]int{dstLeaf, (start + i) % n}
			m, seen := r.from[k]
			if !seen || (wantChanged && !r.changed[k]) {
				continue
			}
			r.cursor[dstLeaf] = (k[1] + 1) % n
			delete(r.changed, k)
			return refFB{valid: true, tag: uint8(k[1]), metric: m.aged(now, r.p.AgeTimeout)}
		}
	}
	return refFB{}
}

// arrive takes in the header of a packet leaving the fabric at this leaf:
// its CE goes to the From table, its feedback to the To table.
func (r *refLeaf) arrive(p *refPkt, srcLeaf int, now sim.Time) {
	if !r.conga() {
		return
	}
	k := [2]int{srcLeaf, int(p.tag)}
	if m, seen := r.from[k]; !seen || m.v != p.ce {
		r.changed[k] = true
	}
	r.from[k] = refMetric{p.ce, now}
	if p.fb.valid && int(p.fb.tag) < len(r.uplinks) {
		r.to[[2]int{srcLeaf, int(p.fb.tag)}] = refMetric{p.fb.metric, now}
	}
}

// sweep is the every-Tfl age-bit pass over the whole table.
func (r *refLeaf) sweep() {
	for _, f := range r.slots {
		switch {
		case !f.valid:
		case f.age:
			f.valid = false
		default:
			f.age = true
		}
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
	rng := sim.NewRand(cfg.Seed)
	leaves := make([]*refLeaf, cfg.NumLeaves)
	for i := range leaves { // one RNG split per leaf, in leaf order, whatever the scheme
		leaves[i] = &refLeaf{scheme: cfg.Scheme, p: cfg.Params, rng: rng.Split(), slots: map[int]*refFlowlet{},
			to: map[[2]int]refMetric{}, from: map[[2]int]refMetric{}, changed: map[[2]int]bool{}, cursor: map[int]int{}}
	}
	for h := 0; h < cfg.NumLeaves*hpl; h++ {
		leaf := h / hpl
		link(fmt.Sprintf("h%d->l%d", h, leaf), cfg.AccessRateBps, cfg.AccessPropDelay, cfg.HostBufBytes, false,
			func(p *refPkt, now sim.Time) { // the ingress leaf: every uplink is up
				if dl := p.dst / hpl; dl == leaf {
					links[fmt.Sprintf("l%d->h%d", leaf, p.dst)].send(p, now)
				} else {
					leaves[leaf].pick(p, hash(p), dl, now).send(p, now)
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
					func(p *refPkt, now sim.Time) {
						leaves[leaf].arrive(p, p.src/hpl, now)
						links[fmt.Sprintf("l%d->h%d", leaf, p.dst)].send(p, now)
					})
				leaves[leaf].uplinks = append(leaves[leaf].uplinks, links[fmt.Sprintf("l%d->s%d.%d", leaf, s, k)])
			}
		}
	}
	// DRE decay, then the flowlet sweep, created in the order NewNetwork
	// creates its tickers.
	var tick, sweep func(sim.Time)
	tick = func(now sim.Time) {
		for _, l := range links {
			if l.dre != nil {
				l.dre.Decay()
			}
		}
		eng.at(now+cfg.Params.TDRE, tick)
	}
	eng.at(cfg.Params.TDRE, tick)
	sweep = func(now sim.Time) {
		for _, r := range leaves {
			r.sweep()
		}
		eng.at(now+cfg.Params.Tfl, sweep)
	}
	eng.at(cfg.Params.Tfl, sweep)
	return links
}

// pacedSource is a null-transport flow: each firing sends a burst of 1–8
// packets back to back, then waits one of the first gaps gaps, from 0.3 µs
// (several firings per level-0 block) to 120 µs (idle stretches the wheel
// crosses by cascading) and, past the first five, the 0.7 and 1.5 ms pauses
// that end a 500 µs flowlet. A source offered only the three short ones
// sends faster than an access link drains.
type pacedSource struct {
	flow     uint64
	src, dst int
	gaps     int
}

var (
	refGaps     = [...]sim.Time{300, 1500, 5 * sim.Microsecond, 30 * sim.Microsecond, 120 * sim.Microsecond, 700 * sim.Microsecond, 1500 * sim.Microsecond}
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
	h := p.Hdr
	n.log.add(pktKey{p.FlowID, p.Seq}, hop{at: now, link: from.Name, ce: h.CE, tag: h.LBTag,
		fb: refFB{valid: h.FBValid, tag: h.FBLBTag, metric: h.FBMetric}})
	n.next.handle(p, from, now)
}

// TestFabricMatchesReference compares every packet's records on both
// topologies: ECMP, spray, CONGA and CONGA-Flow on the 2×2 fabric, ECMP on
// the testbed and CONGA on eight leaves of which three carry traffic, so most
// of each leaf's flowlet-table pages and congestion-table peer rows are never
// written.
func TestFabricMatchesReference(t *testing.T) {
	const until = 45 * sim.Millisecond // ≥ 10⁴ level-0 blocks, 21 level-1 window ends
	small := Config{EdgeBufBytes: 8 << 10, FabricBufBytes: 6 << 10, HostBufBytes: 24 << 10, Scheme: SchemeECMP}
	quick, testbed, sparse := small, small, small
	quick.NumLeaves, quick.NumSpines, quick.HostsPerLeaf, quick.LinksPerSpine = 2, 2, 8, 2
	quick.AccessRateBps, quick.FabricRateBps = 1e9, 4e9
	sparse.NumLeaves, sparse.NumSpines, sparse.HostsPerLeaf = 8, 2, 4
	sparse.AccessRateBps, sparse.FabricRateBps = 1e9, 4e9
	with := func(c Config, s Scheme) Config { c.Scheme = s; return c }
	for _, tc := range []struct {
		name     string
		cfg      Config
		sources  int
		fastGaps int   // the gaps source 0 draws from: 3 outruns a 10 Gb/s access link
		gaps     int   // the gaps the other sources draw from
		busy     []int // the leaves whose hosts send and receive; nil: all
		edges    bool  // every flow's flowlet slot is the first or last of a 512-slot page
	}{
		{"quick-2x2", quick, 8, 5, 5, nil, false},
		{"testbed-64", testbed, 16, 3, 5, nil, false},
		{"spray-2x2", with(quick, SchemeSpray), 8, 3, len(refGaps), nil, false},
		{"conga-2x2", with(quick, SchemeCONGA), 8, 3, len(refGaps), nil, false},
		{"conga-flow-2x2", with(quick, SchemeCONGAFlow), 8, 3, len(refGaps), nil, false},
		{"conga-8leaf", with(sparse, SchemeCONGA), 12, 3, len(refGaps), []int{1, 4, 6}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg.WithDefaults()
			hosts := cfg.NumLeaves * cfg.HostsPerLeaf
			host := func(i int) int { return i }
			if tc.busy != nil {
				hosts = len(tc.busy) * cfg.HostsPerLeaf
				host = func(i int) int { return tc.busy[i/cfg.HostsPerLeaf]*cfg.HostsPerLeaf + i%cfg.HostsPerLeaf }
			}
			rng := sim.NewRand(7)
			var srcs []pacedSource
			for i := 0; i < tc.sources; i++ {
				s := pacedSource{flow: uint64(i + 1), src: rng.Intn(hosts), gaps: tc.gaps}
				switch {
				case i == 0: // across the fabric into host 0: CE marks, queues, drops
					s.src, s.gaps = hosts-1, tc.fastGaps
				case i%3 != 0: // a third of the rest converge on host 0 too
					s.dst = rng.Intn(hosts)
				}
				if s.dst == s.src {
					s.dst = (s.src + hosts/2) % hosts
				}
				s.src, s.dst = host(s.src), host(s.dst)
				for tc.edges && (HashFlow(s.flow, s.src, s.dst, 1000+int(s.flow), 80)%uint64(cfg.Params.FlowletTableSize)+1)%512 > 1 {
					s.flow += uint64(tc.sources) // flow IDs stay distinct
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

			var drained, marked, fed uint64
			n.eachLink(func(l *Link) { drained += l.drained })
			keys := make([]pktKey, 0, len(want))
			for k, hs := range want {
				keys = append(keys, k)
				for _, h := range hs {
					marked += uint64(h.ce)
					if h.fb.valid {
						fed++
					}
				}
			}
			if len(want) < 10000 || len(tr.Events()) == 0 || drained == 0 || marked == 0 || eng.Cascades() == 0 {
				t.Fatalf("traffic too tame: %d packets, %d drops, %d drained starts, CE sum %d, %d cascades",
					len(want), len(tr.Events()), drained, marked, eng.Cascades())
			}
			if _, ok := n.Leaves[0].Strategy().(congaCarrier); ok {
				var decisions, moves uint64
				for _, ls := range n.Leaves {
					l := ls.Strategy().(congaCarrier).Core()
					decisions, moves = decisions+l.Decisions, moves+l.Moves
				}
				if fed == 0 || decisions == 0 || (cfg.Scheme == SchemeCONGA && moves == 0) {
					t.Fatalf("CONGA too tame: %d hops with feedback, %d decisions, %d moves", fed, decisions, moves)
				}
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
