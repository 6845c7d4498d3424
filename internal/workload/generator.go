package workload

import (
	"fmt"

	"conga/internal/fabric"
	"conga/internal/sim"
)

// Starter launches one flow; the experiment harness binds it to a transport
// (TCP or MPTCP) and a results recorder. The workload package itself is
// transport-agnostic.
type Starter func(src, dst *fabric.Host, flowID uint64, size int64)

// GenConfig configures an open-loop Poisson flow generator, the traffic
// model of §5.2: clients request flows at Poisson arrivals from randomly
// chosen servers under other leaves, with sizes drawn from an empirical
// distribution, at a target fraction of the fabric's bisection bandwidth.
type GenConfig struct {
	// Load is the offered load as a fraction of the per-direction leaf
	// bisection bandwidth (uplink capacity of one leaf).
	Load float64
	// Dist draws flow sizes.
	Dist SizeDist
	// Duration is the arrival window; flows arriving inside it may finish
	// after it.
	Duration sim.Time
	// MaxFlows caps the number of generated flows (0 = unlimited), which
	// bounds experiment cost at high loads.
	MaxFlows int
	// InterLeafOnly restricts src/dst pairs to distinct leaves (the
	// testbed setup: leaf-0 clients use leaf-1 servers and vice versa).
	// When false, destinations are any other host.
	InterLeafOnly bool
	// FlowIDBase offsets generated flow IDs; keep generators' ID spaces
	// disjoint. Flow IDs advance by Stride per flow (MPTCP needs room
	// for its subflows).
	FlowIDBase uint64
	Stride     uint64
	// Seed isolates this generator's randomness.
	Seed uint64
}

// Generator produces flows on a network.
type Generator struct {
	eng *sim.Engine
	net *fabric.Network
	cfg GenConfig
	rng *sim.Rand

	start    Starter
	arriveFn sim.Event // bound once so each arrival schedules allocation-free
	nextID   uint64
	created  int

	// Generated counts flows started; OfferedBytes sums their sizes.
	Generated    int
	OfferedBytes int64
}

// NewGenerator prepares a generator; Start begins the arrival process.
func NewGenerator(eng *sim.Engine, net *fabric.Network, cfg GenConfig, start Starter) (*Generator, error) {
	if cfg.Load <= 0 {
		return nil, fmt.Errorf("workload: load %v must be positive", cfg.Load)
	}
	if cfg.Dist == nil {
		return nil, fmt.Errorf("workload: no size distribution")
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("workload: duration %v must be positive", cfg.Duration)
	}
	if cfg.Stride == 0 {
		cfg.Stride = 1
	}
	if net.NumLeaves() < 2 {
		return nil, fmt.Errorf("workload: need ≥ 2 leaves")
	}
	g := &Generator{
		eng:    eng,
		net:    net,
		cfg:    cfg,
		rng:    sim.NewRand(cfg.Seed + 0x9e37),
		start:  start,
		nextID: cfg.FlowIDBase,
	}
	g.arriveFn = g.arrive
	return g, nil
}

// BisectionBps returns the nominal per-direction uplink capacity of one
// leaf, the reference for the Load fraction. It uses configured rates, so a
// failed link does not change the offered load (matching §5.2.2, where the
// same load levels are offered to the degraded fabric).
func (g *Generator) BisectionBps() float64 {
	cfg := g.net.Cfg
	rate := 0.0
	if cfg.FabricLinkRate != nil {
		for s := 0; s < cfg.NumSpines; s++ {
			for k := 0; k < cfg.LinksPerSpine; k++ {
				if r := cfg.FabricLinkRate(0, s, k); r > 0 {
					rate += r
				} else {
					rate += cfg.FabricRateBps
				}
			}
		}
		return rate
	}
	return cfg.FabricRateBps * float64(cfg.NumSpines*cfg.LinksPerSpine)
}

// ArrivalRate returns the flow arrival rate in flows/second implied by the
// load target: λ = load · C / E[S], counting both directions (each leaf
// offers load·C toward the others).
func (g *Generator) ArrivalRate() float64 {
	bytesPerSec := g.cfg.Load * g.BisectionBps() / 8
	perDirection := bytesPerSec / g.cfg.Dist.Mean()
	return perDirection * float64(g.net.NumLeaves())
}

// Start begins the Poisson arrival process.
func (g *Generator) Start() {
	g.scheduleNext(g.eng.Now())
}

func (g *Generator) scheduleNext(now sim.Time) {
	if g.cfg.MaxFlows > 0 && g.created >= g.cfg.MaxFlows {
		return
	}
	gap := sim.Time(g.rng.ExpFloat64() / g.ArrivalRate() * float64(sim.Second))
	next := now + gap
	if next > g.cfg.Duration {
		return
	}
	g.eng.At(next, g.arriveFn)
}

// arrive is the per-arrival event body (bound once as arriveFn): launch
// the flow, then schedule the next arrival.
func (g *Generator) arrive(t sim.Time) {
	g.launch(t)
	g.scheduleNext(t)
}

func (g *Generator) launch(now sim.Time) {
	a := g.draw(now)
	g.start(g.net.Host(a.Src), g.net.Host(a.Dst), a.FlowID, a.Size)
}

// draw makes the arrival at time at — source, destination, then size, the
// RNG order both the live process and Pregenerate must share — and bumps the
// counters.
func (g *Generator) draw(at sim.Time) Arrival {
	src := g.pickHost(-1)
	var dst *fabric.Host
	if g.cfg.InterLeafOnly {
		dst = g.pickHost(src.Leaf)
	} else {
		for dst = g.pickHost(-1); dst == src; dst = g.pickHost(-1) {
		}
	}
	a := Arrival{At: at, Src: src.ID, Dst: dst.ID, FlowID: g.nextID, Size: g.cfg.Dist.Sample(g.rng)}
	g.nextID += g.cfg.Stride
	g.created++
	g.Generated++
	g.OfferedBytes += a.Size
	return a
}

// Arrival is one pregenerated flow arrival.
type Arrival struct {
	At     sim.Time
	Src    int
	Dst    int
	FlowID uint64
	Size   int64
}

// Pregenerate draws the entire arrival sequence up front instead of
// scheduling live events, consuming the RNG in exactly the order the live
// process would (gap, then source, destination and size per arrival), so a
// pregenerated run offers the identical workload to a Started one. The FCT
// harness uses it to materialize the arrival list it routes to per-domain
// engines before the run begins. Counters (Generated, OfferedBytes) are
// updated as if the flows had launched; a pregenerated generator must not
// also be Started.
func (g *Generator) Pregenerate() []Arrival {
	var out []Arrival
	now := g.eng.Now()
	for {
		if g.cfg.MaxFlows > 0 && g.created >= g.cfg.MaxFlows {
			break
		}
		gap := sim.Time(g.rng.ExpFloat64() / g.ArrivalRate() * float64(sim.Second))
		next := now + gap
		if next > g.cfg.Duration {
			break
		}
		out = append(out, g.draw(next))
		now = next
	}
	return out
}

// pickHost selects a host uniformly; when avoidLeaf ≥ 0 the host must be
// under a different leaf.
func (g *Generator) pickHost(avoidLeaf int) *fabric.Host {
	for {
		h := g.net.Host(g.rng.Intn(len(g.net.Hosts)))
		if avoidLeaf < 0 || h.Leaf != avoidLeaf {
			return h
		}
	}
}
