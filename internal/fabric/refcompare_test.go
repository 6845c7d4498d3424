package fabric

import (
	"fmt"
	"reflect"
	"testing"

	"conga/internal/sim"
	"conga/internal/telemetry"
)

// The comparison with the reference of reffabric_test.go: every link's log
// of arrivals and drops, production's taken by wrapping its links, and the
// paced null-transport sources both fabrics run. tcpref_test.go compares tcp
// flows through the same logs, reached through export_test.go.

// hop is one record in a link's log: a packet arrived at the link's far end
// at at, carrying the overlay header's CE, LBTag and piggybacked feedback and
// its transport fields, or — in the link's drop log — the link dropped it at
// at. A drop record holds what the packet trace records: the fields down to
// payload.
type hop struct {
	at      sim.Time
	flow    uint64
	src     int // the sending host: a flow's ACKs come from its destination
	seq     int64
	payload int
	ackNo   int64
	sack    [3][2]int64 // absolute [start, end) blocks; zero past the ones carried
	echo    sim.Time
	ce, tag uint8
	fb      refFB
}

// refFB is the header's feedback triple: FBValid, FBLBTag and FBMetric.
type refFB struct {
	valid       bool
	tag, metric uint8
}

type hopKey struct {
	link string
	drop bool
}

// hopLog holds each link's arrivals and, apart, its drops, in the order they
// happened. Links are FIFO, so the logs fix every packet's path and timing.
type hopLog map[hopKey][]hop

func (l hopLog) add(link string, drop bool, h hop) {
	k := hopKey{link, drop}
	l[k] = append(l[k], h)
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
	h := hop{at: now, flow: p.FlowID, src: int(p.SrcHost), seq: p.Seq, payload: int(p.Payload), ackNo: p.AckNo,
		echo: p.EchoTS, ce: p.Hdr.CE, tag: p.Hdr.LBTag, fb: refFB{valid: p.Hdr.FBValid, tag: p.Hdr.FBLBTag, metric: p.Hdr.FBMetric}}
	for i := range p.SackN {
		h.sack[i] = [2]int64{p.AckNo + int64(p.Sack[i][0]), p.AckNo + int64(p.Sack[i][1])}
	}
	n.log.add(from.Name, false, h)
	n.next.handle(p, from, now)
}

// logHops makes every link of n log its arrivals, and its drops through a
// packet trace; the function it returns completes the log after the run.
func logHops(t *testing.T, n *Network) func() hopLog {
	log := hopLog{}
	tr := telemetry.New(telemetry.Options{Trace: true, TraceCap: 1 << 18}).Trace()
	n.eachLink(func(l *Link) {
		l.dst = &loggingNode{next: l.dst, log: log}
		l.trace = tr
	})
	return func() hopLog {
		if info := tr.Info(); info.Suppressed != 0 {
			t.Fatalf("drop trace overflowed (%d suppressed)", info.Suppressed)
		}
		for _, ev := range tr.Events() {
			log.add(ev.Where, true, hop{at: ev.T, flow: ev.FlowID, src: ev.Src, seq: ev.Seq, payload: ev.Payload})
		}
		return log
	}
}

// compareHops fails t at the earliest record on which the logs differ.
func compareHops(t *testing.T, got, want hopLog) {
	t.Helper()
	if reflect.DeepEqual(got, want) {
		return
	}
	first, at, idx := hopKey{}, sim.MaxTime, 0
	for _, l := range []hopLog{got, want} {
		for k := range l {
			g, w := got[k], want[k]
			i := 0
			for i < len(g) && i < len(w) && g[i] == w[i] {
				i++
			}
			for _, hs := range [][]hop{g, w} {
				if i < len(hs) && hs[i].at <= at {
					first, at, idx = k, hs[i].at, i
				}
			}
		}
	}
	rec := func(hs []hop) any {
		if idx < len(hs) {
			return hs[idx]
		}
		return "nothing"
	}
	t.Fatalf("link %s (drops %v) record %d:\nproduction %+v\nreference  %+v", first.link, first.drop, idx, rec(got[first]), rec(want[first]))
}

// TestFabricMatchesReference compares every link's log on both topologies:
// ECMP, spray, CONGA and CONGA-Flow on the 2×2 fabric, ECMP on the testbed and
// CONGA on eight leaves of which three carry traffic, so most of each leaf's
// flowlet-table pages and congestion-table peer rows are never written.
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
			logged := logHops(t, n)
			for i, s := range srcs {
				s.pace(uint64(100+i), func(at sim.Time, fn func(sim.Time)) { eng.At(at, fn) },
					func(seq int64, payload int, now sim.Time) {
						h := n.Hosts[s.src]
						p := h.NewPacket()
						p.FlowID, p.DstHost, p.SrcPort, p.DstPort, p.Seq, p.Payload = s.flow, s.dst, 1000+int(s.flow), 80, seq, int32(payload)
						h.Send(p, now)
					})
			}
			eng.Run(until)
			got := logged()

			ref := &refEngine{}
			want := hopLog{}
			links := refNet(cfg, ref, want, func(*refPkt, sim.Time) {})
			for i, s := range srcs {
				s.pace(uint64(100+i), ref.at, func(seq int64, payload int, now sim.Time) {
					p := &refPkt{flow: s.flow, src: s.src, dst: s.dst, sport: 1000 + int(s.flow), dport: 80, seq: seq, payload: payload}
					links[fmt.Sprintf("h%d->l%d", s.src, s.src/cfg.HostsPerLeaf)].send(p, now)
				})
			}
			ref.run(until)

			var drained, marked, fed, pkts, drops uint64
			n.eachLink(func(l *Link) { drained += l.drained })
			for k, hs := range want {
				if k.link[0] == 'h' { // a packet's first link delivers or drops it
					pkts += uint64(len(hs))
				}
				if k.drop {
					drops += uint64(len(hs))
				}
				for _, h := range hs {
					marked += uint64(h.ce)
					if h.fb.valid {
						fed++
					}
				}
			}
			if pkts < 10000 || drops == 0 || drained == 0 || marked == 0 || eng.Cascades() == 0 {
				t.Fatalf("traffic too tame: %d packets, %d drops, %d drained starts, CE sum %d, %d cascades",
					pkts, drops, drained, marked, eng.Cascades())
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
			compareHops(t, got, want)
		})
	}
}
