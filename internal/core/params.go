// Package core implements the CONGA load-balancing algorithm exactly as
// specified in §3 of "CONGA: Distributed Congestion-Aware Load Balancing for
// Datacenters" (Alizadeh et al., SIGCOMM 2014): the Discounting Rate
// Estimator, the flowlet table with valid/age bits, the Congestion-To-Leaf
// and Congestion-From-Leaf tables, opportunistic leaf-to-leaf feedback, and
// the per-flowlet load-balancing decision.
//
// The package is a pure algorithmic model of the paper's leaf/spine ASIC
// datapath. It has no notion of packets in flight or links — the fabric
// simulator (internal/fabric) feeds it observations and asks it for
// decisions, which mirrors how the ASIC pipeline hands the CONGA block
// header fields and receives an uplink selection.
package core

import (
	"fmt"

	"conga/internal/sim"
)

// GapMode selects how the flowlet table detects inactivity gaps.
type GapMode int

const (
	// GapModeAgeBit reproduces the ASIC mechanism from §3.4: one age bit
	// per entry and a periodic sweep every Tfl, which detects gaps between
	// Tfl and 2·Tfl.
	GapModeAgeBit GapMode = iota
	// GapModeTimestamp stores a full last-activity timestamp per entry and
	// detects gaps of exactly Tfl. It is what a software implementation
	// would do; it exists to quantify the cost of the ASIC's one-bit
	// approximation (an ablation in the benchmark harness) and to run very
	// large simulations without paying for table sweeps.
	GapModeTimestamp
)

func (m GapMode) String() string {
	switch m {
	case GapModeAgeBit:
		return "agebit"
	case GapModeTimestamp:
		return "timestamp"
	default:
		return fmt.Sprintf("GapMode(%d)", int(m))
	}
}

// PathMetric selects how per-link congestion composes into a path metric.
type PathMetric int

const (
	// PathMetricMax is the paper's choice: the CE field carries the
	// maximum link metric along the path, emphasizing the bottleneck and
	// needing no extra header bits (§7, "Other path metrics").
	PathMetricMax PathMetric = iota
	// PathMetricSum accumulates link metrics with saturating addition.
	// In theory the sum metric has a better worst-case Price of Anarchy
	// (4/3 vs 2); the paper rejects it because it needs wider header
	// fields — here the 3-bit field simply saturates, which is the
	// honest hardware-constrained version. Provided for the DESIGN.md
	// ablation.
	PathMetricSum
)

func (m PathMetric) String() string {
	if m == PathMetricSum {
		return "sum"
	}
	return "max"
}

// Params holds the CONGA configuration knobs from §3.6. The zero value is
// not valid; start from DefaultParams.
type Params struct {
	// Q is the number of bits used to quantize congestion metrics. The
	// paper explores Q = 3..6 and ships Q = 3.
	Q int

	// TDRE is the period of the DRE decay timer.
	TDRE sim.Time

	// Alpha is the DRE multiplicative decay factor; the DRE time constant
	// is τ = TDRE/Alpha. The paper default is τ = 160 µs.
	Alpha float64

	// Tfl is the flowlet inactivity timeout. The paper default is 500 µs;
	// CONGA-Flow uses 13 ms (greater than the maximum path latency in the
	// testbed), which turns CONGA into one decision per flow.
	Tfl sim.Time

	// AgeTimeout is how long a congestion metric may go without an update
	// before it starts to decay toward zero (§3.3, "metric aging"). The
	// paper suggests 10 ms.
	AgeTimeout sim.Time

	// FlowletTableSize is the number of entries in the flowlet hash table.
	// The implementation in the paper's Leaf ASIC holds 64K entries; at
	// most maxFlowletTableSize are accepted.
	FlowletTableSize int

	// MaxUplinks bounds the LBTag space. The wire format carries a 4-bit
	// LBTag, so this may not exceed 16; the paper's hardware uses at most
	// 12 uplinks.
	MaxUplinks int

	// GapMode selects the flowlet gap-detection mechanism.
	GapMode GapMode

	// PathMetric selects max (paper default) or saturating-sum path
	// congestion composition.
	PathMetric PathMetric
}

// maxFlowletTableSize is the largest FlowletTableSize Validate accepts: 256
// times the ASIC's 64K entries, whose 32K-page index is 256 KB per table. A
// larger size could ask for more memory than the host has, which kills the
// process instead of returning an error.
const maxFlowletTableSize = 1 << 24

// DefaultParams returns the paper's default configuration: Q = 3,
// τ = 160 µs (TDRE = 20 µs, α = 1/8), Tfl = 500 µs, 10 ms metric aging, and
// a 64K-entry flowlet table.
func DefaultParams() Params {
	return Params{
		Q:                3,
		TDRE:             20 * sim.Microsecond,
		Alpha:            0.125,
		Tfl:              500 * sim.Microsecond,
		AgeTimeout:       10 * sim.Millisecond,
		FlowletTableSize: 64 * 1024,
		MaxUplinks:       16,
		GapMode:          GapModeAgeBit,
	}
}

// CongaFlowParams returns the CONGA-Flow variant from §5: identical to
// CONGA except the flowlet timeout exceeds the maximum path latency (13 ms
// in the paper's testbed), so every flow makes exactly one — but still
// congestion-aware — path decision.
func CongaFlowParams() Params {
	p := DefaultParams()
	p.Tfl = 13 * sim.Millisecond
	return p
}

// Tau returns the DRE time constant τ = TDRE/α.
func (p Params) Tau() sim.Time {
	return sim.Time(float64(p.TDRE) / p.Alpha)
}

// MaxMetric returns the largest representable quantized congestion metric,
// 2^Q − 1.
func (p Params) MaxMetric() uint8 { return uint8(1<<p.Q - 1) }

// Validate reports the first configuration error, if any.
func (p Params) Validate() error {
	switch {
	case p.Q < 1 || p.Q > 6:
		return fmt.Errorf("core: Q = %d out of range [1, 6]", p.Q)
	case p.TDRE <= 0:
		return fmt.Errorf("core: TDRE = %v must be positive", p.TDRE)
	case p.Alpha <= 0 || p.Alpha >= 1:
		return fmt.Errorf("core: Alpha = %v out of range (0, 1)", p.Alpha)
	case p.Tfl <= 0:
		return fmt.Errorf("core: Tfl = %v must be positive", p.Tfl)
	case p.AgeTimeout <= 0:
		return fmt.Errorf("core: AgeTimeout = %v must be positive", p.AgeTimeout)
	case p.FlowletTableSize <= 0 || p.FlowletTableSize > maxFlowletTableSize:
		return fmt.Errorf("core: FlowletTableSize = %d out of range [1, %d]", p.FlowletTableSize, maxFlowletTableSize)
	case p.MaxUplinks < 1 || p.MaxUplinks > maxLBTag+1:
		return fmt.Errorf("core: MaxUplinks = %d out of range [1, %d]", p.MaxUplinks, maxLBTag+1)
	case p.GapMode != GapModeAgeBit && p.GapMode != GapModeTimestamp:
		return fmt.Errorf("core: unknown GapMode %d", p.GapMode)
	case p.PathMetric != PathMetricMax && p.PathMetric != PathMetricSum:
		return fmt.Errorf("core: unknown PathMetric %d", p.PathMetric)
	}
	return nil
}
