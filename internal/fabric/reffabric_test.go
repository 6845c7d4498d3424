package fabric

import (
	"container/heap"
	"fmt"
	"sort"

	"conga/internal/core"
	"conga/internal/sim"
)

// The reference fabric: the same leaf-spine, written as plainly as the paper
// describes it and sharing no mechanism with the production one. A
// container/heap of closures is its engine; its links are discrete, with a
// sending flag and one tx-done and one delivery event per packet; packets are
// plain structs, routing looks links up by name, every DRE decays on every
// tick, and there is no pool, memo, prefetch, claim or cache. Its leaves run
// ECMP, spray, CONGA or CONGA-Flow; the CONGA state is plain maps, with no
// code shared with core.Leaf. Its hosts run paced null-transport sources or
// refConn, a per-flow TCP over plain range lists that shares no code with
// internal/tcp. Production and reference run the same traffic, and every
// link's log of arrivals and drops must be the same on both.

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
	flow         uint64
	src, dst     int
	sport, dport int
	seq          int64
	payload      int
	ack          bool
	ackNo        int64
	sack         [][2]int64
	sent, echo   sim.Time
	ce, tag      uint8
	fb           refFB
}

func (p *refPkt) hop(at sim.Time) hop {
	h := hop{at: at, flow: p.flow, src: p.src, seq: p.seq, payload: p.payload, ackNo: p.ackNo, echo: p.echo,
		ce: p.ce, tag: p.tag, fb: p.fb}
	copy(h.sack[:], p.sack)
	return h
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
		l.log.add(l.name, true, hop{at: now, flow: p.flow, src: p.src, seq: p.seq, payload: p.payload})
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
		l.log.add(l.name, false, p.hop(now))
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
	n, start := core.MaxUplinks, r.cursor[dstLeaf]
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
// filled in) on eng, logging into log and handing what reaches a host to
// deliver, and returns its links by name.
func refNet(cfg Config, eng *refEngine, log hopLog, deliver func(*refPkt, sim.Time)) map[string]*refLinkFab {
	links := map[string]*refLinkFab{}
	hpl, lps := cfg.HostsPerLeaf, cfg.LinksPerSpine
	link := func(name string, rate float64, prop sim.Time, buf int, fab bool, to func(*refPkt, sim.Time)) {
		l := &refLinkFab{name: name, eng: eng, rate: rate, prop: prop, maxQ: buf, to: to, log: log}
		if fab {
			l.dre = core.NewDRE(rate, cfg.Params)
		}
		links[name] = l
	}
	hash := func(p *refPkt) uint64 { return HashFlow(p.flow, p.src, p.dst, p.sport, p.dport) }
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
		link(fmt.Sprintf("l%d->h%d", leaf, h), cfg.AccessRateBps, cfg.AccessPropDelay, cfg.EdgeBufBytes, false, deliver)
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

// refTCP is the reference TCP's configuration: the tcp.Config fields it
// reads. refFlow is one transfer of Size bytes from host Src to host Dst,
// started at At.
type (
	refTCP struct {
		MSS, InitCwnd, DupThresh, MaxCwnd int
		MinRTO, MaxRTO, InitRTO           sim.Time
	}
	refFlow struct {
		ID       uint64
		Src, Dst int
		Size     int64
		At       sim.Time
	}
)

// refConn is one connection, both ends, as a plain state machine: slow start
// and Reno growth, SACK-based fast recovery with RFC 6675's pipe, an RFC 6298
// timer with Karn's rule and go-back-N on expiry, and a receiver that ACKs
// every segment with up to three SACK blocks, the one holding that segment
// first. Scoreboard and reassembly buffer are sorted range lists.
type refConn struct {
	c                 refTCP
	f                 refFlow
	eng               *refEngine
	out               func(*refPkt, sim.Time) // into the sending host's access link
	done              func(sim.Time)
	sport, dport      int
	una, nxt, rcvNxt  int64
	cwnd, ssthresh    float64
	recovery          bool
	recover, mark     int64 // the recovery point; where hole repair resumes
	pipe              int64 // retransmitted bytes not yet cumulatively acked
	dups              int
	sacked, ooo       [][2]int64 // the sender's scoreboard; the receiver's out-of-order data
	srtt, rttvar, rto sim.Time
	backoff           uint
	lastRetx          sim.Time
	timer             *bool // the armed RTO's liveness; nil when none is armed
	closed            bool
}

// find returns the index of the range holding x, or −1.
func find(rs [][2]int64, x int64) int {
	for i, r := range rs {
		if r[0] <= x && x < r[1] {
			return i
		}
	}
	return -1
}

// insertRange adds [s, e) to rs, merging every range it overlaps or touches,
// and returns the index of the range now holding it.
func insertRange(rs [][2]int64, s, e int64) ([][2]int64, int) {
	rs = append(rs, [2]int64{s, e})
	sort.Slice(rs, func(i, j int) bool { return rs[i][0] < rs[j][0] })
	out := rs[:1]
	for _, r := range rs[1:] {
		if last := &out[len(out)-1]; r[0] <= last[1] {
			last[1] = max(last[1], r[1])
		} else {
			out = append(out, r)
		}
	}
	return out, find(out, s)
}

// segment is the length of a segment sent at seq: a full one, unless limit
// or a sacked range comes first.
func (k *refConn) segment(seq, limit int64) int64 {
	n := min(int64(k.c.MSS), limit-seq)
	for _, r := range k.sacked {
		if r[0] > seq {
			return min(n, r[0]-seq)
		}
	}
	return n
}

func (k *refConn) emit(seq, n int64, now sim.Time) {
	k.out(&refPkt{flow: k.f.ID, src: k.f.Src, dst: k.f.Dst, sport: k.sport, dport: k.dport, seq: seq, payload: int(n), sent: now}, now)
}

// trySend sends new data while a full segment fits in the window, skipping
// what the receiver holds and stopping short at a range it holds; with the
// window below a segment and nothing outstanding it sends a short one.
func (k *refConn) trySend(now sim.Time) {
	for k.nxt < k.f.Size && k.nxt-k.una+int64(k.c.MSS) <= int64(k.cwnd) {
		if i := find(k.sacked, k.nxt); i >= 0 {
			k.nxt = k.sacked[i][1]
			continue
		}
		n := k.segment(k.nxt, k.f.Size)
		k.emit(k.nxt, n, now)
		k.nxt += n
	}
	if k.nxt < k.f.Size && k.nxt == k.una {
		n := min(int64(k.c.MSS), k.f.Size-k.nxt)
		k.emit(k.nxt, n, now)
		k.nxt += n
	}
	if k.nxt > k.una && k.timer == nil {
		k.arm(now)
	}
}

func (k *refConn) arm(now sim.Time) {
	k.disarm()
	live := true
	k.timer = &live
	k.eng.at(now+min(k.rto<<k.backoff, k.c.MaxRTO), func(now sim.Time) {
		if live {
			k.timer = nil
			k.timeout(now)
		}
	})
}

func (k *refConn) disarm() {
	if k.timer != nil {
		*k.timer, k.timer = false, nil
	}
}

func (k *refConn) halve() {
	k.ssthresh = max(float64(k.nxt-k.una)/2, float64(2*k.c.MSS))
}

func (k *refConn) timeout(now sim.Time) {
	k.halve()
	k.cwnd, k.nxt, k.recovery, k.dups, k.mark, k.pipe = float64(k.c.MSS), k.una, false, 0, 0, 0
	k.backoff = min(k.backoff+1, 16)
	k.lastRetx = now
	k.trySend(now)
}

func (k *refConn) ackIn(p *refPkt, now sim.Time) {
	for _, b := range p.sack {
		if b[1] > b[0] && b[1] > k.una {
			k.sacked, _ = insertRange(k.sacked, max(b[0], k.una), b[1])
		}
	}
	if p.ackNo == k.una && k.nxt > k.una {
		k.dupAck(now)
	}
	if p.ackNo <= k.una {
		return
	}
	acked := p.ackNo - k.una
	k.una, k.backoff = p.ackNo, 0
	var kept [][2]int64
	for _, r := range k.sacked {
		if r[1] > k.una {
			kept = append(kept, [2]int64{max(r[0], k.una), r[1]})
		}
	}
	k.sacked = kept
	if p.echo > k.lastRetx {
		k.sample(now - p.echo)
	}
	switch {
	case !k.recovery:
		k.dups = 0
		if k.cwnd < k.ssthresh {
			k.grow(float64(min(acked, int64(k.c.MSS))))
		} else {
			k.grow(float64(k.c.MSS) * float64(k.c.MSS) / k.cwnd)
		}
	case p.ackNo > k.recover:
		k.recovery, k.cwnd, k.dups, k.mark, k.pipe = false, k.ssthresh, 0, 0, 0
	default: // a partial ACK: the hole at una is still missing
		k.pipe = max(k.pipe-acked, 0)
		k.mark = k.una
		k.retransmitHole(now)
		k.recoverySend(now)
	}
	if k.nxt > k.una {
		k.arm(now)
	} else {
		k.disarm()
	}
	k.trySend(now)
	if k.una >= k.f.Size {
		k.closed = true
		k.done(now)
	}
}

func (k *refConn) grow(d float64) {
	k.cwnd = min(max(k.cwnd+d, float64(k.c.MSS)), float64(k.c.MaxCwnd))
}

func (k *refConn) dupAck(now sim.Time) {
	if k.recovery {
		k.recoverySend(now)
		return
	}
	if k.dups++; k.dups < k.c.DupThresh {
		return
	}
	k.halve()
	k.recovery, k.recover, k.mark, k.pipe, k.cwnd = true, k.nxt, k.una, 0, k.ssthresh
	k.retransmitHole(now)
	k.arm(now)
}

// retransmitHole resends the first unsacked bytes at or above the repair
// mark and below the recovery point, up to a segment or the next sacked
// range.
func (k *refConn) retransmitHole(now sim.Time) bool {
	seq, limit := max(k.una, k.mark), min(k.recover, k.f.Size)
	if i := find(k.sacked, seq); i >= 0 {
		seq = k.sacked[i][1]
	}
	if seq >= limit {
		return false
	}
	n := k.segment(seq, limit)
	k.lastRetx, k.mark, k.pipe = now, seq+n, k.pipe+n
	k.emit(seq, n, now)
	return true
}

// recoverySend sends, holes first, while cwnd exceeds the pipe by a segment:
// bytes out, less those sacked and those deemed lost (unsacked below the
// highest sacked byte less three segments), plus retransmissions in flight.
func (k *refConn) recoverySend(now sim.Time) {
	for {
		var sacked, lost int64
		if n := len(k.sacked); n > 0 {
			limit := k.sacked[n-1][1] - int64(3*k.c.MSS)
			lost = max(limit-k.una, 0)
			for _, r := range k.sacked {
				sacked += r[1] - r[0]
				lost -= max(min(r[1], limit)-r[0], 0)
			}
		}
		if int64(k.cwnd)-(k.nxt-k.una-sacked-max(lost, 0)+k.pipe) < int64(k.c.MSS) {
			return
		}
		if k.retransmitHole(now) {
			continue
		}
		if k.nxt >= k.f.Size {
			return
		}
		n := min(int64(k.c.MSS), k.f.Size-k.nxt)
		k.emit(k.nxt, n, now)
		k.nxt += n
	}
}

func (k *refConn) sample(r sim.Time) {
	r = max(r, 1)
	if k.srtt == 0 {
		k.srtt, k.rttvar = r, r/2
	} else {
		k.rttvar = (3*k.rttvar + max(k.srtt-r, r-k.srtt)) / 4
		k.srtt = (7*k.srtt + r) / 8
	}
	k.rto = min(max(k.srtt+4*k.rttvar, k.c.MinRTO), k.c.MaxRTO)
}

func (k *refConn) dataIn(p *refPkt, now sim.Time) {
	start, end, at := p.seq, p.seq+int64(p.payload), 0
	switch {
	case end <= k.rcvNxt:
	case start <= k.rcvNxt:
		k.rcvNxt = end
		for len(k.ooo) > 0 && k.ooo[0][0] <= k.rcvNxt {
			k.rcvNxt, k.ooo = max(k.rcvNxt, k.ooo[0][1]), k.ooo[1:]
		}
	default:
		k.ooo, at = insertRange(k.ooo, start, end)
	}
	a := &refPkt{flow: k.f.ID, src: k.f.Dst, dst: k.f.Src, sport: k.dport, dport: k.sport, ack: true, ackNo: k.rcvNxt, echo: p.sent, sent: now}
	for i := range min(len(k.ooo), 3) {
		a.sack = append(a.sack, k.ooo[(at+i)%len(k.ooo)])
	}
	k.out(a, now)
}

// runRefTCP runs flows over the reference fabric for cfg until until and
// returns its log and each completed flow's completion time. Each flow
// takes its receiver's port, then its sender's, from a per-host counter
// starting at 10000, the order tcp.StartFlow allocates them in.
func runRefTCP(cfg Config, c refTCP, flows []refFlow, until sim.Time) (hopLog, map[uint64]sim.Time) {
	eng, log, fct := &refEngine{}, hopLog{}, map[uint64]sim.Time{}
	conns, ports := map[uint64]*refConn{}, map[int]int{}
	var links map[string]*refLinkFab
	links = refNet(cfg, eng, log, func(p *refPkt, now sim.Time) {
		switch k := conns[p.flow]; {
		case k == nil || k.closed:
		case p.ack:
			k.ackIn(p, now)
		default:
			k.dataIn(p, now)
		}
	})
	out := func(p *refPkt, now sim.Time) {
		links[fmt.Sprintf("h%d->l%d", p.src, p.src/cfg.HostsPerLeaf)].send(p, now)
	}
	port := func(h int) int { ports[h]++; return 9999 + ports[h] }
	for _, f := range flows {
		eng.at(f.At, func(now sim.Time) {
			k := &refConn{c: c, f: f, eng: eng, out: out, done: func(end sim.Time) { fct[f.ID] = end - f.At },
				cwnd: float64(c.InitCwnd * c.MSS), ssthresh: float64(c.MaxCwnd), rto: c.InitRTO, lastRetx: -1}
			k.dport = port(f.Dst)
			k.sport = port(f.Src)
			conns[f.ID] = k
			k.trySend(now)
		})
	}
	eng.run(until)
	return log, fct
}
