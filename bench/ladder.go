package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"conga"
	"conga/internal/core"
	"conga/internal/fabric"
	"conga/internal/mptcp"
	"conga/internal/replay"
	"conga/internal/runner"
	"conga/internal/sim"
	"conga/internal/stats"
	"conga/internal/tcp"
	"conga/internal/telemetry"
	"conga/internal/workload"
)

// The ladder: small drivers that call one layer's exported API on the shape
// of the workload they are reported under. Each rung is timed from outside
// and reported whole; a rung's own layer costs at most its time minus the
// rung below at the same packet or event count.
//
// Telemetry is only ever used on the testbed (fig09_observed), and a full
// registry on 256 leaves would preallocate ~8k series, so the telemetry.*
// rungs and fabric.ns_per_pkt_observed always run on the testbed shape.

type ladder struct {
	sh     shape
	topo   conga.Topology
	e      *env
	tr     *tracer
	out    map[string]float64
	failed []string // violated checks (packet conservation)
}

// layer runs one layer's rungs under a phase span.
func (l *ladder) layer(name string, fn func()) {
	sp := l.tr.beginPhase("ladder." + name)
	fn()
	l.tr.endPhase(sp)
}

// measure runs one rung under its own span and stores the median of three
// runs of fn under the rung's metric name: rungs last a few tens of
// milliseconds, where one descheduling would otherwise show.
func (l *ladder) measure(name string, fn func() float64) {
	sp := l.tr.begin("rung." + name)
	l.out[name] = sample{fn(), fn(), fn()}.median()
	l.tr.end(sp)
}

func since(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) }

func runLadder(sh shape, e *env, tr *tracer) (map[string]float64, []string, error) {
	l := &ladder{sh: sh, topo: sh.topology(), e: e, tr: tr, out: map[string]float64{}}
	l.layer("sim", l.simRungs)
	l.layer("core", l.coreRungs)
	l.layer("fabric", l.fabricRungs)
	l.layer("tcp", l.tcpRungs)
	l.layer("mptcp", l.mptcpRungs)
	var err error
	l.layer("workload+replay", func() { err = l.inputRungs() })
	if err != nil {
		return nil, nil, err
	}
	l.layer("stats", l.statsRung)
	l.layer("telemetry", func() { err = l.telemetryRungs() })
	if err != nil {
		return nil, nil, err
	}
	l.layer("runner", l.runnerRung)
	return l.out, l.failed, nil
}

// ---- sim ----

func (l *ladder) simRungs() {
	noop := func(sim.Time) {}

	// Near: the EngineRaw pattern, 64 pending events over 8 timestamps,
	// all inside the wheel's one-tick level.
	var allocs float64
	l.measure("sim.ns_per_event_near", func() float64 {
		eng := sim.New()
		iters := scaled(30000, 50)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			base := eng.Now()
			for j := 0; j < 64; j++ {
				eng.At(base+sim.Time(j%8), noop)
			}
			eng.Run(sim.MaxTime)
		}
		ns := since(t0)
		runtime.ReadMemStats(&m1)
		allocs = float64(m1.Mallocs-m0.Mallocs) / float64(iters*64)
		return ns / float64(iters*64)
	})
	l.out["sim.allocs_per_event"] = allocs

	// Far: ≥100k pending events spread over 2 ms, each rescheduling itself
	// up to 2 ms ahead — the scale shape, where timers of a thousand hosts
	// sit in the overflow levels and cascade down.
	l.measure("sim.ns_per_event_far", func() float64 {
		eng := sim.New()
		rng := sim.NewRand(l.e.seed)
		const span = 2 * sim.Millisecond
		var offs [1 << 12]sim.Time
		for i := range offs {
			offs[i] = 1 + sim.Time(rng.Intn(int(span)))
		}
		k := 0
		var fn sim.Event
		fn = func(now sim.Time) {
			eng.At(now+offs[k&(len(offs)-1)], fn)
			k++
		}
		pending := scaled(100000, 1000)
		for i := 0; i < pending; i++ {
			eng.At(offs[i&(len(offs)-1)], fn)
		}
		t0 := time.Now()
		eng.Run(span * 8) // ≈ 8 firings per pending event at the 1 ms mean gap ×2
		return since(t0) / float64(eng.Executed())
	})

	// Cancel: arm a 10 ms timer and cancel it, the per-ACK RTO pattern.
	l.measure("sim.ns_per_cancel", func() float64 {
		eng := sim.New()
		n := scaled(1000000, 1000)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			eng.After(10*sim.Millisecond+sim.Time(i&4095), noop).Cancel()
		}
		return since(t0) / float64(n)
	})

	// Barrier: ParallelEngine.Run over two engines whose only work is one
	// self-rescheduling event per window, so the time is the two barriers.
	l.measure("sim.barrier_ns_per_window", func() float64 {
		const window = sim.Microsecond
		engines := []*sim.Engine{sim.New(), sim.New()}
		for _, eng := range engines {
			eng := eng
			var fn sim.Event
			fn = func(now sim.Time) { eng.At(now+window, fn) }
			eng.At(0, fn)
		}
		windows := scaled(20000, 200)
		pe := sim.NewParallelEngine(engines, window)
		t0 := time.Now()
		pe.Run(window * sim.Time(windows))
		return since(t0) / float64(windows)
	})
}

// ---- core ----

func (l *ladder) coreRungs() {
	p := core.DefaultParams()
	uplinks := l.topo.Spines * l.topo.LinksPerSpine
	leaves := l.topo.Leaves
	const flows = 2048
	hashes := make([]uint64, flows)
	for i := range hashes {
		hashes[i] = core.FlowHash(uint64(i), uint64(i*7+1), 10000+uint64(i), 80, 6)
	}
	local := make([]uint8, uplinks)
	dst := func(i int) int { return 1 + i%(leaves-1) }
	rounds := scaled(500, 4)

	// Sticky: every flow revisited within 20 µs, far inside Tfl.
	l.measure("core.ns_per_select_sticky", func() float64 {
		leaf := core.NewLeaf(0, leaves, uplinks, p, sim.NewRand(l.e.seed))
		now := sim.Time(0)
		for i, h := range hashes {
			leaf.SelectUplink(h, dst(i), local, nil, now)
		}
		t0 := time.Now()
		for r := 0; r < rounds; r++ {
			for i, h := range hashes {
				now += 10
				leaf.SelectUplink(h, dst(i), local, nil, now)
			}
		}
		return since(t0) / float64(rounds*flows)
	})

	// New: two age-bit sweeps between rounds expire every flowlet, so each
	// select runs the congestion-table read, the decision and the install.
	l.measure("core.ns_per_select_new", func() float64 {
		leaf := core.NewLeaf(0, leaves, uplinks, p, sim.NewRand(l.e.seed))
		now := sim.Time(0)
		var ns float64
		for r := 0; r < rounds; r++ {
			leaf.SweepFlowlets()
			leaf.SweepFlowlets()
			now += 2 * p.Tfl
			t0 := time.Now()
			for i, h := range hashes {
				leaf.SelectUplink(h, dst(i), local, nil, now)
			}
			ns += since(t0)
		}
		return ns / float64(rounds*flows)
	})

	// DRE decay over one register per fabric link of the shape.
	l.measure("core.ns_per_dre_decay", func() float64 {
		dres := make([]*core.DRE, 2*leaves*uplinks)
		for i := range dres {
			dres[i] = core.NewDRE(l.topo.FabricGbps*1e9, p)
			dres[i].Add(1500 * (1 + i%7))
		}
		sweeps := scaled(4000000, 4000)/len(dres) + 1
		t0 := time.Now()
		for s := 0; s < sweeps; s++ {
			for _, d := range dres {
				d.Add(1500)
				d.Decay()
			}
		}
		return since(t0) / float64(sweeps*len(dres))
	})

	// Feedback: the destination TEP's header processing plus the header the
	// reverse packet leaves with.
	l.measure("core.ns_per_feedback", func() float64 {
		leaf := core.NewLeaf(0, leaves, uplinks, p, sim.NewRand(l.e.seed))
		n := scaled(1000000, 1000)
		now := sim.Time(0)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			now += 100
			peer := dst(i)
			h := core.Header{VNI: 1, LBTag: uint8(i % uplinks), CE: uint8(i % 8), FBValid: true, FBLBTag: uint8((i + 1) % uplinks), FBMetric: uint8(i % 5)}
			leaf.OnFabricArrival(peer, h, now)
			leaf.PrepareHeader(peer, i%uplinks, 1, now)
		}
		return since(t0) / float64(n)
	})
}

// ---- fabric ----

type nullReceiver struct{ n uint64 }

func (r *nullReceiver) Receive(*fabric.Packet, sim.Time) { r.n++ }

const chainPort = 5001

// chainResult is one hop-chain run: packets injected at hosts, carried
// leaf → spine → leaf to a bound null receiver.
type chainResult struct {
	ns             float64
	sent, received uint64
	drops, events  uint64
}

// chain injects pkts packets round-robin from srcs to dsts, one every gap,
// and drains the fabric. It checks packet conservation.
func (l *ladder) chain(topo conga.Topology, reg *telemetry.Registry, srcs, dsts []int, pkts int, gap sim.Time) chainResult {
	eng := sim.New()
	net := fabric.MustNetwork(eng, fabricConfig(topo, conga.SchemeCONGA, l.e.seed, reg))
	rx := &nullReceiver{}
	for _, d := range dsts {
		net.Host(d).Bind(chainPort, rx)
	}
	var res chainResult
	var inject sim.Event
	inject = func(now sim.Time) {
		i := int(res.sent)
		src := net.Host(srcs[i%len(srcs)])
		p := src.NewPacket()
		p.FlowID = uint64(i % 64)
		p.DstHost = dsts[i%len(dsts)]
		p.SrcPort = 10000 + i%64
		p.DstPort = chainPort
		p.Seq = int64(i) * mss
		p.Payload = mss
		p.SentAt = now
		src.Send(p, now)
		res.sent++
		if int(res.sent) < pkts {
			eng.At(now+gap, inject)
		}
	}
	eng.At(0, inject)
	t0 := time.Now()
	eng.Run(sim.MaxTime)
	res.ns = since(t0)
	res.events = eng.Executed()
	res.drops = net.TotalDrops()
	for _, h := range net.Hosts {
		res.received += h.RxPackets
	}
	if res.sent != res.received+res.drops || rx.n != res.received {
		l.failed = append(l.failed, fmt.Sprintf("hop chain lost packets: sent %d, received %d (receiver saw %d), dropped %d",
			res.sent, res.received, rx.n, res.drops))
	}
	return res
}

func (l *ladder) fabricRungs() {
	t := l.topo
	hosts := t.Leaves * t.HostsPerLeaf
	first := func(n int) []int { // n hosts from leaf 0 upward
		s := make([]int, n)
		for i := range s {
			s[i] = i
		}
		return s
	}
	lastLeaf := func(n int) []int { // n hosts under the last leaf
		s := make([]int, n)
		for i := range s {
			s[i] = hosts - 1 - i
		}
		return s
	}
	accessSer := sim.Time(float64(mss+fabric.HeaderOverhead) * 8 / (t.AccessGbps * 1e9) * 1e9)
	pkts := scaled(100000, 500)

	// Idle: one packet every 2 µs rotated over 4 sources and 4 sinks, so
	// every link is free when its next packet arrives (fused fast path).
	var idle chainResult
	l.measure("fabric.ns_per_pkt_idle", func() float64 {
		idle = l.chain(t, nil, first(4), lastLeaf(4), pkts, 2*sim.Microsecond)
		return idle.ns / float64(idle.sent)
	})
	l.out["fabric.events_per_pkt_idle"] = float64(idle.events) / float64(idle.sent)

	// Contended: 8 sources at access line rate into one sink's access
	// port, 8× what it drains: queued path, then tail drops.
	var hot chainResult
	l.measure("fabric.ns_per_pkt_contended", func() float64 {
		hot = l.chain(t, nil, first(8), lastLeaf(1), pkts, accessSer/8)
		return hot.ns / float64(hot.sent)
	})
	l.out["fabric.events_per_pkt_contended"] = float64(hot.events) / float64(hot.sent)
	l.out["fabric.drop_frac_contended"] = float64(hot.drops) / float64(hot.sent)

	// Observed: the idle pattern with a full registry attached (testbed).
	tb := conga.Testbed()
	l.measure("fabric.ns_per_pkt_observed", func() float64 {
		r := l.chain(tb, telemetry.New(telemetry.All("")), first(4), []int{63, 62, 61, 60}, pkts, 2*sim.Microsecond)
		return r.ns / float64(r.sent)
	})

	// Build: timed like a set-up build, with the collector run first so the
	// heap is reused instead of faulted in.
	l.measure("fabric.build_ms", func() float64 {
		runtime.GC()
		t0 := time.Now()
		fabric.MustNetwork(sim.New(), fabricConfig(t, conga.SchemeCONGA, l.e.seed, nil))
		return since(t0) / 1e6
	})

	// Idle fabric: no traffic, only the DRE-decay and flowlet-sweep tickers.
	l.measure("fabric.idle_ns_per_sim_ms", func() float64 {
		eng := sim.New()
		fabric.MustNetwork(eng, fabricConfig(t, conga.SchemeCONGA, l.e.seed, nil))
		simMs := scaled(200, 5)
		t0 := time.Now()
		eng.Run(sim.Time(simMs) * sim.Millisecond)
		return since(t0) / float64(simMs)
	})
}

// ---- tcp, mptcp ----

// tcpConfig mirrors conga.TransportConfig.tcpConfig for a 1500-byte MTU.
func tcpConfig(minRTO sim.Time) tcp.Config {
	c := tcp.DefaultConfig()
	c.MinRTO = minRTO
	c.InitRTO = minRTO
	if c.InitRTO < 5*sim.Millisecond {
		c.InitRTO = 5 * sim.Millisecond
	}
	c.MaxCwnd = 2 << 20
	return c
}

// shortSize cycles flow sizes through 1..10 KB.
func shortSize(i int) int64 { return int64(1+i%10) << 10 }

// startEvery starts n flows, one every gap, between seeded random hosts
// under different leaves.
func (l *ladder) startEvery(eng *sim.Engine, net *fabric.Network, n int, gap sim.Time, start func(src, dst *fabric.Host, i int)) {
	rng := sim.NewRand(l.e.seed + 7)
	hosts := len(net.Hosts)
	i := 0
	var next sim.Event
	next = func(now sim.Time) {
		src := net.Host(rng.Intn(hosts))
		dst := net.Host(rng.Intn(hosts))
		for dst.Leaf == src.Leaf {
			dst = net.Host(rng.Intn(hosts))
		}
		start(src, dst, i)
		if i++; i < n {
			eng.At(now+gap, next)
		}
	}
	eng.At(0, next)
}

func (l *ladder) tcpRungs() {
	t := l.topo
	hosts := t.Leaves * t.HostsPerLeaf
	cfg := tcpConfig(10 * sim.Millisecond)

	// Clean: one long flow across the fabric, no loss, per data segment.
	// The time covers TCP and the fabric under it (one data packet and one
	// ACK per segment); subtracting the null-transport rung at the same
	// packet count overshoots, because a flow's back-to-back segments and
	// small ACKs ride the fabric cheaper than that rung's spaced packets,
	// so the rung is reported whole.
	l.measure("tcp.ns_per_pkt_clean", func() float64 {
		eng := sim.New()
		net := fabric.MustNetwork(eng, fabricConfig(t, conga.SchemeCONGA, l.e.seed, nil))
		size := int64(scaled(30<<20, 1<<20))
		var segs uint64
		tcp.NewFlowPool().StartFlow(eng, net.Host(0), net.Host(hosts-1), 1, size, cfg,
			func(f *tcp.Flow, _ sim.Time) { segs = f.Sender.Stats().SegmentsSent })
		t0 := time.Now()
		eng.Run(sim.MaxTime)
		return since(t0) / float64(segs)
	})

	// Short: many ≤10 KB flows through FlowPool.StartFlow, where flow
	// set-up, port allocation and teardown dominate. The same run gives the
	// share of forwarded packets that rode an existing flowlet.
	var hit float64
	l.measure("tcp.ns_per_flow_short", func() float64 {
		eng := sim.New()
		net := fabric.MustNetwork(eng, fabricConfig(t, conga.SchemeCONGA, l.e.seed, nil))
		pool := tcp.NewFlowPool()
		n := scaled(10000, 100)
		l.startEvery(eng, net, n, sim.Microsecond, func(src, dst *fabric.Host, i int) {
			pool.StartFlow(eng, src, dst, uint64(i+1), shortSize(i), cfg, nil)
		})
		t0 := time.Now()
		eng.Run(sim.MaxTime)
		ns := since(t0)
		var up, decisions uint64
		for _, ls := range net.Leaves {
			up += ls.UpPackets
			if cc, ok := ls.Strategy().(interface{ Core() *core.Leaf }); ok {
				decisions += cc.Core().Decisions
			}
		}
		hit = float64(up-decisions) / float64(up)
		return ns / float64(n)
	})
	l.out["core.flowlet_hit_ratio"] = hit

	// Lossy: 32 senders into one access port with the Incast RTO, rounds
	// back to back. The port gets a shallow 512 KB buffer so that the burst
	// overflows it: with the default 6 MB share a 10 MB round never drops.
	var retxFrac, timeouts float64
	l.measure("tcp.ns_per_pkt_lossy", func() float64 {
		eng := sim.New()
		fc := fabricConfig(t, conga.SchemeCONGA, l.e.seed, nil)
		fc.EdgeBufBytes = 512 << 10
		net := fabric.MustNetwork(eng, fc)
		pool := tcp.NewFlowPool()
		lossy := tcpConfig(sim.Millisecond)
		const fanout = 32
		rounds := scaled(10, 1)
		var sent, retx, rtos uint64
		left, round := 0, 0
		var startRound func()
		done := func(f *tcp.Flow, _ sim.Time) {
			st := f.Sender.Stats()
			sent += st.SegmentsSent
			retx += st.RetxSegments
			rtos += st.Timeouts
			if left--; left == 0 && round < rounds {
				startRound()
			}
		}
		startRound = func() {
			round++
			left = fanout
			for i := 0; i < fanout; i++ {
				pool.StartFlow(eng, net.Host(1+i%(hosts-1)), net.Host(0), uint64(round*fanout+i), (10<<20)/fanout, lossy, done)
			}
		}
		eng.At(0, func(sim.Time) { startRound() })
		t0 := time.Now()
		eng.Run(sim.MaxTime)
		ns := since(t0)
		retxFrac = float64(retx) / float64(sent)
		timeouts = float64(rtos)
		return ns / float64(sent)
	})
	l.out["tcp.retx_frac"] = retxFrac
	l.out["tcp.timeouts"] = timeouts
}

func (l *ladder) mptcpRungs() {
	t := l.topo
	hosts := t.Leaves * t.HostsPerLeaf
	cfg := mptcp.Config{Subflows: 8, TCP: tcpConfig(10 * sim.Millisecond), ChunkSegments: 4}
	segsOf := func(f *mptcp.Flow) (n uint64) {
		for _, s := range f.Conn.Subflows() {
			n += s.Stats().SegmentsSent
		}
		return n
	}

	l.measure("mptcp.ns_per_pkt", func() float64 {
		eng := sim.New()
		net := fabric.MustNetwork(eng, fabricConfig(t, conga.SchemeECMP, l.e.seed, nil))
		var segs uint64
		mptcp.NewPool().StartFlow(eng, net.Host(0), net.Host(hosts-1), 8, int64(scaled(30<<20, 1<<20)), cfg,
			func(f *mptcp.Flow, _ sim.Time) { segs = segsOf(f) })
		t0 := time.Now()
		eng.Run(sim.MaxTime)
		return since(t0) / float64(segs)
	})

	l.measure("mptcp.ns_per_flow_short", func() float64 {
		eng := sim.New()
		net := fabric.MustNetwork(eng, fabricConfig(t, conga.SchemeECMP, l.e.seed, nil))
		pool := mptcp.NewPool()
		n := scaled(5000, 100)
		l.startEvery(eng, net, n, sim.Microsecond, func(src, dst *fabric.Host, i int) {
			pool.StartFlow(eng, src, dst, uint64(8*(i+1)), shortSize(i), cfg, nil)
		})
		t0 := time.Now()
		eng.Run(sim.MaxTime)
		return since(t0) / float64(n)
	})
}

// ---- workload, replay ----

func (l *ladder) inputRungs() error {
	eng := sim.New()
	net := fabric.MustNetwork(eng, fabricConfig(l.topo, conga.SchemeCONGA, l.e.seed, nil))
	n := scaled(100000, 1000)
	var arrivals []workload.Arrival
	var genErr error
	l.measure("workload.ns_per_arrival", func() float64 {
		gen, err := workload.NewGenerator(eng, net, workload.GenConfig{
			Load: 0.6, Dist: workload.Enterprise(), Duration: 1000 * sim.Second,
			MaxFlows: n, InterLeafOnly: true, Seed: l.e.seed,
		}, nil)
		if err != nil {
			genErr = err
			return 0
		}
		t0 := time.Now()
		arrivals = gen.Pregenerate()
		return since(t0) / float64(len(arrivals))
	})
	if genErr != nil {
		return genErr
	}
	if len(arrivals) != n {
		return fmt.Errorf("workload rung: pregenerated %d arrivals, want %d", len(arrivals), n)
	}

	rec := &replay.Recorder{Header: replay.Header{Harness: "bench", Workload: "enterprise", Seed: l.e.seed}}
	for _, a := range arrivals {
		rec.Add(replay.Flow{At: a.At, Src: a.Src, Dst: a.Dst, FlowID: a.FlowID, Size: a.Size, Kind: replay.KindWorkload})
	}
	trace := rec.Trace()
	path := filepath.Join(l.e.dir, "ladder.trace.gz")
	var ioErr error
	l.measure("replay.write_ns_per_flow", func() float64 {
		t0 := time.Now()
		if err := trace.Write(path); err != nil {
			ioErr = err
		}
		return since(t0) / float64(n)
	})
	l.measure("replay.read_ns_per_flow", func() float64 {
		t0 := time.Now()
		got, err := replay.Read(path)
		if err != nil {
			ioErr = err
		} else if len(got.Flows) != n {
			ioErr = fmt.Errorf("replay rung: read %d flows, wrote %d", len(got.Flows), n)
		}
		return since(t0) / float64(n)
	})
	return ioErr
}

// ---- stats, telemetry, runner ----

func (l *ladder) statsRung() {
	l.measure("stats.ns_per_record", func() float64 {
		n := scaled(1000000, 1000)
		rec := stats.NewFCTRecorder(n)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			rec.Record(shortSize(i)<<(i%11), sim.Time(100000+i), sim.Time(50000+i/2))
		}
		return since(t0) / float64(n)
	})
}

func (l *ladder) telemetryRungs() error {
	l.measure("telemetry.ns_per_observe", func() float64 {
		s := telemetry.New(telemetry.All("")).NewSeries("bench.rung", "x")
		n := scaled(2000000, 1000)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			s.Observe(sim.Time(i), float64(i))
		}
		return since(t0) / float64(n)
	})
	// The trace keeps its first 65536 events and counts the rest, which is
	// what a full-length observed run does with almost every record.
	l.measure("telemetry.ns_per_trace_record", func() float64 {
		tr := telemetry.New(telemetry.All("")).Trace()
		n := scaled(1000000, 1000)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			tr.Record(sim.Time(i), telemetry.TraceSend, "h0", uint64(i%64), 0, 63, 10000, 80, int64(i)*mss, mss)
		}
		return since(t0) / float64(n)
	})

	// Flush: the registry a short observed run returns, written as CSV and
	// NDJSON the way RunFCT does before it returns.
	cfg := fctBase(l.e.seed)
	cfg.MaxFlows = scaled(200, 20)
	cfg.Telemetry = conga.TelemetryAll("")
	res, err := conga.RunFCT(withDist(cfg))
	if err != nil {
		return err
	}
	dir := filepath.Join(l.e.dir, "ladder-telemetry")
	var flushErr error
	l.measure("telemetry.flush_ms", func() float64 {
		t0 := time.Now()
		if err := res.Telemetry.FlushTo(dir); err != nil {
			flushErr = err
		}
		return since(t0) / 1e6
	})
	return flushErr
}

func (l *ladder) runnerRung() {
	l.measure("runner.dispatch_us", func() float64 {
		items := make([]int, scaled(100000, 100))
		t0 := time.Now()
		runner.Map(0, items, func(int) (int, error) { return 0, nil })
		return since(t0) / 1e3 / float64(len(items))
	})
}
