package conga

import (
	"fmt"
	"time"

	"conga/internal/fabric"
	"conga/internal/sim"
)

// AsymmetryResult reports the §2.4 scenarios: sustained throughput of
// long-lived TCP traffic over an asymmetric fabric.
type AsymmetryResult struct {
	Scheme string
	// SpineGbps is the delivered throughput through each spine (summed
	// over that spine's downlinks).
	SpineGbps []float64
	// TotalGbps is the aggregate delivered throughput — the quantity
	// Figure 2 reports as 90 / 80 / 100 for ECMP / local / CONGA.
	TotalGbps float64
	// LeafUplinkGbps[leaf] gives each source leaf's per-uplink sending
	// rate, which exposes the traffic split decisions directly.
	LeafUplinkGbps [][]float64
}

// RunFigure2 reproduces the Figure 2 scenario at reduced scale: leaf 0
// offers more TCP traffic to leaf 1 than the fabric can carry, and the
// (S1, L1) link has half the capacity of the others (as after a partial
// LAG failure). The load-balancing question is how leaf 0 splits across
// the spines when only the *remote* half of the lower path is thin.
//
// Paper outcome: static ECMP splits 50/50 and strands capacity; a local
// congestion-aware scheme is *worse* than ECMP (TCP backpressure makes the
// lower path look idle locally, attracting more traffic); CONGA's
// leaf-to-leaf feedback finds the ~2:1 split and delivers full capacity.
func RunFigure2(scheme Scheme, seed uint64) (*AsymmetryResult, error) {
	topo := Topology{
		Leaves: 2, Spines: 2, HostsPerLeaf: 16, LinksPerSpine: 1,
		AccessGbps: 1, FabricGbps: 10,
		// Only the spine1↔leaf1 link is thin; leaf 0's own uplinks are
		// symmetric, so a local-only view cannot see the asymmetry.
		FabricLinkGbps: func(leaf, spine, k int) float64 {
			if leaf == 1 && spine == 1 {
				return 5
			}
			return 0
		},
	}
	return runLongLivedLoad(topo, scheme, seed,
		[]pair{{srcLeaf: 0, dstLeaf: 1, flows: 16}}, 400*time.Millisecond)
}

// RunFigure3 reproduces Figure 3: three leaves, two spines, with leaf 0
// attached only to spine 0 (its spine-1 link failed). Leaf 1 sends to leaf
// 2 continuously; scenario (b) adds leaf0→leaf2 traffic, which consumes
// the shared S0→L2 link and changes leaf 1's optimal split — something no
// static weighting can track (§2.4).
func RunFigure3(scheme Scheme, withL0Traffic bool, seed uint64) (*AsymmetryResult, error) {
	topo := Topology{
		Leaves: 3, Spines: 2, HostsPerLeaf: 8, LinksPerSpine: 1,
		AccessGbps: 1, FabricGbps: 4,
		FailedLinks: [][3]int{{0, 1, 0}}, // L0 reaches the fabric via S0 only
	}
	// L0's cross traffic (when present) starts first so the congestion it
	// creates on the shared S0→L2 link is already visible when L1's flows
	// make (and RTO-revisit) their path decisions. L1's demand matches
	// one spine path, so where it lands is a pure LB decision.
	pairs := []pair{{srcLeaf: 1, dstLeaf: 2, flows: 4, startAt: 40 * time.Millisecond}}
	if withL0Traffic {
		pairs = append(pairs, pair{srcLeaf: 0, dstLeaf: 2, flows: 6})
	}
	return runLongLivedLoad(topo, scheme, seed, pairs, 400*time.Millisecond)
}

type pair struct {
	srcLeaf, dstLeaf, flows int
	startAt                 time.Duration
}

// runLongLivedLoad saturates the given leaf pairs with long-lived TCP
// flows and measures delivered throughput per spine over the second half
// of the run (the first half is TCP/CONGA convergence warm-up). The
// scenarios compare fabric schemes under TCP, so the MPTCP marker — ECMP
// with multipath hosts — is refused rather than run as ECMP under its name.
func runLongLivedLoad(topo Topology, scheme Scheme, seed uint64, pairs []pair,
	dur time.Duration) (*AsymmetryResult, error) {
	if scheme == SchemeMPTCPMarker {
		return nil, fmt.Errorf("conga: the §2.4 scenarios run TCP over a fabric scheme; mptcp is a host transport, not one")
	}
	r, err := newRun(topo, scheme, nil, TransportConfig{}.withDefaults(), nil, seed, nil, 1)
	if err != nil {
		return nil, err
	}
	eng, net := r.doms[0].eng, r.net
	r.tcpCfg.MinRTO = 10 * sim.Millisecond
	r.tcpCfg.InitRTO = 50 * sim.Millisecond

	id := uint64(1)
	for _, pr := range pairs {
		pr := pr
		eng.At(sim.Duration(pr.startAt), func(sim.Time) {
			for i := 0; i < pr.flows; i++ {
				r.start(0, arrival{
					src:    pr.srcLeaf*topo.HostsPerLeaf + i%topo.HostsPerLeaf,
					dst:    pr.dstLeaf*topo.HostsPerLeaf + i%topo.HostsPerLeaf,
					flowID: id,
					size:   1 << 40, // effectively infinite
				})
				id++
			}
		})
	}

	half := sim.Duration(dur) / 2
	r.exec(half)
	spineStart := make([]uint64, topo.Spines)
	for s := range spineStart {
		spineStart[s] = spineTxBytes(net, s, topo.Leaves)
	}
	upStart := make([][]uint64, topo.Leaves)
	for leaf := range upStart {
		for _, l := range net.Leaves[leaf].Uplinks() {
			upStart[leaf] = append(upStart[leaf], l.TxBytes())
		}
	}
	r.exec(2 * half)

	res := &AsymmetryResult{
		Scheme:         SchemeName(scheme),
		SpineGbps:      make([]float64, topo.Spines),
		LeafUplinkGbps: make([][]float64, topo.Leaves),
	}
	window := half.Seconds()
	for s := 0; s < topo.Spines; s++ {
		gbps := float64(spineTxBytes(net, s, topo.Leaves)-spineStart[s]) * 8 / window / 1e9
		res.SpineGbps[s] = gbps
		res.TotalGbps += gbps
	}
	for leaf := 0; leaf < topo.Leaves; leaf++ {
		for i, l := range net.Leaves[leaf].Uplinks() {
			gbps := float64(l.TxBytes()-upStart[leaf][i]) * 8 / window / 1e9
			res.LeafUplinkGbps[leaf] = append(res.LeafUplinkGbps[leaf], gbps)
		}
	}
	return res, nil
}

func spineTxBytes(net *fabric.Network, s, leaves int) uint64 {
	var total uint64
	for leaf := 0; leaf < leaves; leaf++ {
		for _, l := range net.Spines[s].Downlinks(leaf) {
			total += l.TxBytes()
		}
	}
	return total
}
