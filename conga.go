// Package conga is a faithful, laptop-scale reproduction of "CONGA:
// Distributed Congestion-Aware Load Balancing for Datacenters" (Alizadeh et
// al., SIGCOMM 2014).
//
// The package exposes the experiment harness: describe a Leaf-Spine
// topology, pick a load-balancing scheme (ECMP, CONGA, CONGA-Flow, a
// local-only congestion-aware scheme, per-packet spraying, or static
// weighted splitting), attach a workload (the paper's empirical enterprise,
// data-mining and web-search distributions, Incast patterns, or an HDFS
// benchmark model), and run it on a deterministic packet-level simulator.
// Results come back as the statistics the paper reports: flow completion
// times by size bucket, throughput-imbalance CDFs, queue occupancy CDFs,
// and Incast goodput.
//
// The CONGA algorithm itself — DRE congestion estimation, flowlet
// detection, leaf-to-leaf feedback, and the min-max decision rule — lives
// in internal/core and is documented there; this package is how you drive
// it.
//
// # Quick start
//
//	res, err := conga.RunFCT(conga.FCTConfig{
//		Scheme:   conga.SchemeCONGA,
//		Workload: conga.WorkloadEnterprise,
//		Load:     0.6,
//	})
//
// See examples/ for complete programs and DESIGN.md for the map from the
// paper's figures to the experiment entry points.
package conga

import (
	"fmt"
	"time"

	"conga/internal/core"
	"conga/internal/fabric"
	"conga/internal/sim"
	"conga/internal/tcp"
	"conga/internal/telemetry"
)

// TelemetryOptions selects the observability probes for a run: monotonic
// counters (per-link enqueue/dequeue/drop/CE-mark, flowlet
// create/expire/evict, TCP loss recovery), fixed-capacity time series
// (queue depth, DRE register, flowlet occupancy, congestion-table metrics,
// feedback staleness), a packet trace of every flow or of one, and the
// decision plane (flowlet routing audit trail, per-(uplink, dstLeaf) path
// load matrices). See internal/telemetry for the
// zero-overhead-when-off design and the determinism guarantee: probes
// observe, they never schedule, so enabling telemetry changes no simulation
// outcome.
type TelemetryOptions = telemetry.Options

// TelemetryRegistry holds a run's collected telemetry; experiment results
// expose it for programmatic access after the run, and it flushes one NDJSON
// sink file per probe when Options.Dir is set.
type TelemetryRegistry = telemetry.Registry

// TelemetryAll returns options with every probe enabled, flushing to dir
// after the run ("" keeps everything in memory).
func TelemetryAll(dir string) *TelemetryOptions {
	o := telemetry.All(dir)
	return &o
}

// Scheme selects the leaf load-balancing policy.
type Scheme = fabric.Scheme

// The available schemes. See the fabric package for their semantics.
const (
	SchemeECMP      = fabric.SchemeECMP
	SchemeCONGA     = fabric.SchemeCONGA
	SchemeCONGAFlow = fabric.SchemeCONGAFlow
	SchemeLocal     = fabric.SchemeLocal
	SchemeSpray     = fabric.SchemeSpray
	SchemeWCMP      = fabric.SchemeWCMP
)

// ParseScheme converts a scheme name ("ecmp", "conga", "conga-flow",
// "local", "spray", "wcmp", or "mptcp" for the MPTCP marker) to a Scheme;
// it inverts SchemeName.
func ParseScheme(name string) (Scheme, error) {
	if name == SchemeName(SchemeMPTCPMarker) {
		return SchemeMPTCPMarker, nil
	}
	return fabric.ParseScheme(name)
}

// AllSchemes lists every scheme in presentation order.
func AllSchemes() []Scheme {
	return []Scheme{SchemeECMP, SchemeCONGAFlow, SchemeCONGA, SchemeMPTCPMarker, SchemeLocal, SchemeSpray, SchemeWCMP}
}

// SchemeMPTCPMarker is not a fabric scheme: the paper's MPTCP baseline runs
// ECMP in the fabric with multipath at the hosts. It exists so result
// tables can carry an "mptcp" row; RunFCT treats it as ECMP + MPTCP
// transport.
const SchemeMPTCPMarker = Scheme(100)

// Transport selects the end-host protocol.
type Transport int

// Supported transports.
const (
	TransportTCP Transport = iota
	TransportMPTCP
)

func (t Transport) String() string {
	if t == TransportMPTCP {
		return "mptcp"
	}
	return "tcp"
}

// Topology describes a Leaf-Spine fabric. The zero value is the paper's
// baseline testbed (Figure 7a): 2 leaves × 2 spines × 2 parallel 40 Gbps
// links, 32 hosts per leaf at 10 Gbps (2:1 oversubscription).
type Topology struct {
	Leaves        int
	Spines        int
	HostsPerLeaf  int
	LinksPerSpine int
	AccessGbps    float64
	FabricGbps    float64

	// FailedLinks lists (leaf, spine, k) triples taken down before the
	// experiment starts, as in Figures 7b, 11, 14b and 16.
	FailedLinks [][3]int

	// LinkRates overrides the capacity of single fabric links (the §2.4
	// asymmetry scenarios); every other link runs at FabricGbps.
	LinkRates []LinkRate

	// EdgeBufBytes / FabricBufBytes override the switch buffer per port.
	EdgeBufBytes   int
	FabricBufBytes int
}

// LinkRate sets the capacity of parallel link K between Leaf and Spine, in
// both directions, to Gbps.
type LinkRate = fabric.LinkRate

// Testbed returns the paper's baseline testbed topology explicitly.
func Testbed() Topology {
	return Topology{Leaves: 2, Spines: 2, HostsPerLeaf: 32, LinksPerSpine: 2,
		AccessGbps: 10, FabricGbps: 40}
}

// withDefaults fills zero fields from the testbed baseline.
func (t Topology) withDefaults() Topology {
	base := Testbed()
	if t.Leaves == 0 {
		t.Leaves = base.Leaves
	}
	if t.Spines == 0 {
		t.Spines = base.Spines
	}
	if t.HostsPerLeaf == 0 {
		t.HostsPerLeaf = base.HostsPerLeaf
	}
	if t.LinksPerSpine == 0 {
		t.LinksPerSpine = base.LinksPerSpine
	}
	if t.AccessGbps == 0 {
		t.AccessGbps = base.AccessGbps
	}
	if t.FabricGbps == 0 {
		t.FabricGbps = base.FabricGbps
	}
	return t
}

// fabricConfig lowers a Topology plus scheme/params onto the simulator.
func (t Topology) fabricConfig(scheme Scheme, params core.Params, seed uint64, tel *telemetry.Registry) fabric.Config {
	return fabric.Config{
		NumLeaves:      t.Leaves,
		NumSpines:      t.Spines,
		HostsPerLeaf:   t.HostsPerLeaf,
		LinksPerSpine:  t.LinksPerSpine,
		AccessRateBps:  t.AccessGbps * 1e9,
		FabricRateBps:  t.FabricGbps * 1e9,
		EdgeBufBytes:   t.EdgeBufBytes,
		FabricBufBytes: t.FabricBufBytes,
		Scheme:         scheme,
		Params:         params,
		LinkRates:      t.LinkRates,
		Seed:           seed,
		Telemetry:      tel,
	}
}

// build instantiates the network across one engine per partition domain
// (one engine is the sequential fabric) and applies link failures. They
// are applied before the run starts, so the up/down flags are immutable
// while domains execute concurrently. tel (nil when telemetry is off) is
// wired through the fabric before any event runs.
func (t Topology) build(engines []*sim.Engine, scheme Scheme, params core.Params, seed uint64, tel *telemetry.Registry) (*fabric.Network, error) {
	n, err := fabric.NewPartitionedNetwork(engines, t.fabricConfig(scheme, params, seed, tel))
	if err != nil {
		return nil, err
	}
	for i, f := range t.FailedLinks {
		if !n.HasLink(f[0], f[1], f[2]) { // FailLink would panic
			return nil, fmt.Errorf("conga: Topology.FailedLinks[%d] = (leaf %d, spine %d, k %d) names no link of a %d-leaf, %d-spine fabric with %d links per pair",
				i, f[0], f[1], f[2], len(n.Leaves), len(n.Spines), n.Cfg.LinksPerSpine)
		}
		n.FailLink(f[0], f[1], f[2])
	}
	return n, nil
}

// TransportConfig tunes the end-host stack.
type TransportConfig struct {
	Kind Transport
	// MTU in bytes (1500 default; the Incast experiments also use 9000).
	MTU int
	// MinRTO clamps the retransmission timer (Linux default 200 ms; 1 ms
	// is the Incast-tuned setting).
	MinRTO time.Duration
	// Subflows for MPTCP (default 8).
	Subflows int
	// ReorderWindow, when positive, enables RACK-style reordering
	// resilience in TCP — required for per-packet CONGA (Figure 1's
	// rightmost branch).
	ReorderWindow time.Duration
}

func (tc TransportConfig) withDefaults() TransportConfig {
	if tc.MTU == 0 {
		tc.MTU = 1500
	}
	if tc.MinRTO == 0 {
		tc.MinRTO = 200 * time.Millisecond
	}
	if tc.Subflows == 0 {
		tc.Subflows = 8
	}
	return tc
}

func (tc TransportConfig) tcpConfig() tcp.Config {
	c := tcp.DefaultConfig()
	c.MSS = tcp.MTUToMSS(tc.MTU)
	c.MinRTO = sim.Duration(tc.MinRTO)
	// Connections are modelled post-handshake, so an RTT estimate exists
	// before the first data segment: the pre-sample RTO is the clamped
	// floor rather than RFC 6298's cold 1 s.
	c.InitRTO = c.MinRTO
	if min := 5 * sim.Millisecond; c.InitRTO < min {
		c.InitRTO = min
	}
	// TCP Small Queues + receive-buffer autotuning bound how far a single
	// DC flow's window can run past the path BDP.
	c.MaxCwnd = 2 << 20
	c.ReorderWindow = sim.Duration(tc.ReorderWindow)
	return c
}

// Params re-exports the CONGA parameter block (§3.6 knobs).
type Params = core.Params

// DefaultParams returns the paper's default CONGA parameters.
func DefaultParams() Params { return core.DefaultParams() }

// schemeForFabric maps the presentation-level scheme (which includes the
// MPTCP marker) to the fabric scheme and transport actually run.
func schemeForFabric(s Scheme, t Transport) (Scheme, Transport, error) {
	if s == SchemeMPTCPMarker {
		return SchemeECMP, TransportMPTCP, nil
	}
	switch s {
	case SchemeECMP, SchemeCONGA, SchemeCONGAFlow, SchemeLocal, SchemeSpray, SchemeWCMP:
		return s, t, nil
	default:
		return 0, 0, fmt.Errorf("conga: unknown scheme %v", s)
	}
}

// SchemeName names a scheme including the MPTCP pseudo-scheme.
func SchemeName(s Scheme) string {
	if s == SchemeMPTCPMarker {
		return "mptcp"
	}
	return s.String()
}
