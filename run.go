package conga

import (
	"fmt"

	"conga/internal/fabric"
	"conga/internal/mptcp"
	"conga/internal/replay"
	"conga/internal/sim"
	"conga/internal/tcp"
	"conga/internal/telemetry"
)

// run is what every harness (FCT, Incast, HDFS, the long-lived-load
// scenarios) builds on: the fabric over one engine per partition domain,
// the per-domain transport pools, the telemetry registry, and the one way
// to start a flow, inject an arrival list, execute and finish. A
// sequential experiment is the one-domain case, not a second code path:
// sim.ParallelEngine over one engine is that engine's Run.
type run struct {
	net  *fabric.Network
	reg  *telemetry.Registry // nil when telemetry is off
	pe   *sim.ParallelEngine
	doms []*runDomain

	transport Transport
	tcpCfg    tcp.Config
	mpCfg     mptcp.Config
	check     bool // audit the run (the harness configs' Check)
}

// runDomain is one partition domain's private slice of a run. Nothing in
// it is shared — domains meet only through the fabric's mailboxes — so
// what runs on a domain's engine needs no locks.
type runDomain struct {
	eng     *sim.Engine
	pool    *tcp.FlowPool
	mpool   *mptcp.Pool
	started int // flows begun through run.start
	// checkErr is the first completed flow, under the audit, that did not
	// deliver exactly its size.
	checkErr error

	tcpDone   func(f *tcp.Flow, now sim.Time)
	mptcpDone func(f *mptcp.Flow, now sim.Time)
}

// recvPortBase splits every host's port space between the two sides of a
// cross-domain flow: receivers are pre-bound at recvPortBase and above
// before the run starts, and LimitEphemeralPorts keeps concurrent sender
// port allocation (which runs inside the source host's domain) strictly
// below it. No port decision is therefore ever made across a domain
// boundary during the run.
const recvPortBase = 1 << 25

// arrival is one flow to start. dstPort, when non-zero, is the receiver
// already bound on the destination host.
type arrival struct {
	at       sim.Time
	src, dst int
	flowID   uint64
	size     int64
	dstPort  int
}

// newRun resolves the presentation-level scheme to the fabric scheme and
// transport actually run, and builds the fabric across one fresh engine per
// domain. A nil params hands the fabric a zero Params, so its scheme-aware
// default is the only place CONGA-Flow gets its 13 ms flowlet timeout. tc
// must already have its defaults applied.
func newRun(topo Topology, scheme Scheme, params *Params, tc TransportConfig, seed uint64,
	tel *TelemetryOptions, domains int) (*run, error) {
	fabScheme, transport, err := schemeForFabric(scheme, tc.Kind)
	if err != nil {
		return nil, err
	}
	var p Params
	if params != nil {
		p = *params
	}
	if domains < 1 {
		domains = 1
	}
	r := &run{transport: transport, tcpCfg: tc.tcpConfig()}
	r.mpCfg = mptcp.Config{Subflows: tc.Subflows, TCP: r.tcpCfg, ChunkSegments: 4}
	// The transports panic on a config they cannot run; a caller's typo is
	// an error here instead, before anything is built.
	if r.tcpCfg.MSS <= 0 {
		return nil, fmt.Errorf("conga: Transport.MTU %d leaves no room for payload (MSS %d)", tc.MTU, r.tcpCfg.MSS)
	}
	if err := r.mpCfg.Validate(); err != nil {
		return nil, fmt.Errorf("conga: Transport (MinRTO %v, Subflows %d): %w", tc.MinRTO, tc.Subflows, err)
	}
	// Per-engine object pools: flows, endpoints and MPTCP connections
	// recycle for the whole run, so the steady state of a workload loop
	// allocates nothing.
	engines := make([]*sim.Engine, domains)
	for d := range engines {
		engines[d] = sim.New()
		r.doms = append(r.doms, &runDomain{eng: engines[d], pool: tcp.NewFlowPool(), mpool: mptcp.NewPool()})
	}
	if tel != nil {
		r.reg = telemetry.New(*tel)
	}
	if r.net, err = topo.build(engines, fabScheme, p, seed, r.reg); err != nil {
		return nil, err
	}
	r.pe = sim.NewParallelEngine(engines, r.net.Cfg.FabricPropDelay)
	for d := range engines {
		r.pe.SetExchange(d, func(windowEnd sim.Time) { r.net.Exchange(d, windowEnd) })
	}
	return r, nil
}

// flowDone receives a finished flow, whichever transport carried it, on
// the goroutine of the domain that owns its source host. flowID is the
// first subflow's for MPTCP; retx and timeouts sum over subflows.
type flowDone func(domain int, flowID uint64, size int64, fct sim.Time, retx, timeouts uint64)

// onFlowDone binds fn as the completion callback of every flow the run
// starts from here on. The two transport adapters are created once per
// domain, not per flow.
func (r *run) onFlowDone(fn flowDone) {
	for d, dom := range r.doms {
		dom.tcpDone = func(f *tcp.Flow, now sim.Time) {
			st := f.Sender.Stats()
			if r.check {
				// A flow started toward a caller-bound receiver has no
				// receiver of its own; the bytes it had acked stand in.
				delivered := st.BytesAcked
				if f.Receiver != nil {
					delivered = f.Receiver.Delivered()
				}
				dom.checkDelivered(f.Sender.FlowID(), f.Size, delivered)
			}
			fn(d, f.Sender.FlowID(), f.Size, f.FCT(now), st.RetxSegments, st.Timeouts)
		}
		dom.mptcpDone = func(f *mptcp.Flow, now sim.Time) {
			var retx, timeouts uint64
			subs := f.Conn.Subflows()
			if r.check {
				dom.checkDelivered(subs[0].FlowID(), f.Size, f.Conn.Acked())
			}
			for _, s := range subs {
				st := s.Stats()
				retx += st.RetxSegments
				timeouts += st.Timeouts
			}
			fn(d, subs[0].FlowID(), f.Size, f.FCT(now), retx, timeouts)
		}
	}
}

// checkDelivered keeps the domain's first completed flow whose delivered
// byte count is not its size.
func (dom *runDomain) checkDelivered(flowID uint64, size, delivered int64) {
	if dom.checkErr == nil && delivered != size {
		dom.checkErr = fmt.Errorf("check: flow %d completed having delivered %d of its %d bytes", flowID, delivered, size)
	}
}

// enableCheck turns the audit on before the run: the fabric audits its
// flowlet tables, link queues and host NICs' packet conservation at every
// sweep, every flow completing through onFlowDone has its delivered bytes
// compared with its size, and audit reads the verdict afterwards.
func (r *run) enableCheck() {
	r.check = true
	r.net.EnableCheck()
}

// audit returns the first failure of an audited run after exec: a flow that
// did not deliver exactly its size, then a sweep audit failure, then — when
// the run drained, no live event left on any engine — the fabric's drain
// audit and a leak from a domain's transport pools: every flow, endpoint and
// MPTCP connection a pool allocated must be back on it. A run its horizon
// cut short may hold packets and flows in flight, so the drain audits do
// not apply to it.
func (r *run) audit() error {
	for _, dom := range r.doms {
		if dom.checkErr != nil {
			return dom.checkErr
		}
	}
	if err := r.net.CheckErr(); err != nil {
		return err
	}
	for _, dom := range r.doms {
		if dom.eng.Live() > 0 {
			return nil
		}
	}
	if err := r.net.CheckDrained(); err != nil {
		return err
	}
	for d, dom := range r.doms {
		if err := dom.pool.CheckReturned(); err != nil {
			return fmt.Errorf("check: domain %d's tcp pool leaked at drain: %w", d, err)
		}
		if err := dom.mpool.CheckReturned(); err != nil {
			return fmt.Errorf("check: domain %d's mptcp pool leaked at drain: %w", d, err)
		}
	}
	return nil
}

// start begins one flow on domain d, which must own a.src. It is the one
// place a transport is chosen.
func (r *run) start(d int, a arrival) {
	dom := r.doms[d]
	dom.started++
	src := r.net.Host(a.src)
	switch {
	case r.transport == TransportMPTCP:
		dom.mpool.StartFlow(dom.eng, src, r.net.Host(a.dst), a.flowID, a.size, r.mpCfg, dom.mptcpDone)
	case a.dstPort != 0:
		dom.pool.StartFlowTo(dom.eng, src, a.flowID, a.dst, a.dstPort, a.size, r.tcpCfg, dom.tcpDone)
	default:
		dom.pool.StartFlow(dom.eng, src, r.net.Host(a.dst), a.flowID, a.size, r.tcpCfg, dom.tcpDone)
	}
}

// started counts the flows begun so far across domains.
func (r *run) started() int {
	n := 0
	for _, dom := range r.doms {
		n += dom.started
	}
	return n
}

// inject routes a time-sorted arrival list to the domains owning the
// source hosts and walks each domain's share with one cursor event whose
// body starts the flow and then schedules the next arrival — the event
// structure of a live Poisson generator, so injecting a drawn or recorded
// list creates events in the order drawing it live would.
//
// The one rule that separates one domain from several lives here. With one
// domain a flow binds its receiver when it starts and closes it when it
// completes. With several, every receiver is bound before the run, at
// recvPortBase and up, and stays bound: closing it at the sender's
// completion instant would cross a domain boundary inside the lookahead.
// Binding early is sound because receivers are purely reactive — no packet
// addressed to a pre-bound port exists before its sender starts. Several
// domains carry TCP only (FCTConfig.checkParallel), so one receiver per
// flow is the whole rule.
func (r *run) inject(flows []replay.Flow) {
	prebind := len(r.doms) > 1
	var nextRecv []int
	if prebind {
		for _, h := range r.net.Hosts {
			h.LimitEphemeralPorts(recvPortBase - 1)
		}
		nextRecv = make([]int, len(r.net.Hosts))
	}
	lists := make([][]arrival, len(r.doms))
	for _, f := range flows {
		a := arrival{at: f.At, src: f.Src, dst: f.Dst, flowID: f.FlowID, size: f.Size}
		if prebind {
			a.dstPort = recvPortBase + nextRecv[f.Dst]
			nextRecv[f.Dst]++
			tcp.NewReceiver(r.doms[r.net.HostDomain(f.Dst)].eng, r.net.Host(f.Dst), a.dstPort)
		}
		d := r.net.HostDomain(f.Src)
		lists[d] = append(lists[d], a)
	}
	for d, list := range lists {
		if len(list) == 0 {
			continue
		}
		eng, next := r.doms[d].eng, 0
		var cursor sim.Event // bound once; walks the list allocation-free
		cursor = func(sim.Time) {
			a := list[next]
			next++
			r.start(d, a)
			if next < len(list) {
				eng.At(list[next].at, cursor)
			}
		}
		eng.At(list[0].at, cursor)
	}
}

// exec runs every domain to until and returns the latest engine clock.
func (r *run) exec(until sim.Time) sim.Time { return r.pe.Run(until) }

// events counts the simulator events executed so far across domains.
func (r *run) events() uint64 {
	var n uint64
	for _, dom := range r.doms {
		n += dom.eng.Executed()
	}
	return n
}

// finish is the telemetry epilogue of a run: pull the as-of-now counters
// and flush the sinks. It returns the populated registry (nil when
// telemetry is off) for the harness's result.
func (r *run) finish() (*telemetry.Registry, error) {
	if r.reg == nil {
		return nil, nil
	}
	r.reg.Collect()
	if err := r.reg.Flush(); err != nil {
		return nil, fmt.Errorf("conga: telemetry flush: %w", err)
	}
	return r.reg, nil
}
