// Package fabric is a packet-level discrete-event model of a datacenter
// Leaf-Spine fabric: hosts, access and fabric links with drop-tail queues,
// leaf switches running a pluggable load-balancing strategy (ECMP, CONGA,
// CONGA-Flow, local congestion-aware, packet spraying, weighted random),
// and spine switches with per-link DREs and CONGA congestion marking.
//
// It substitutes for the paper's hardware testbed and OMNET++ simulator:
// store-and-forward switching, serialization and propagation delay, finite
// buffers, link failures, and the VXLAN-style overlay between leaf TEPs are
// all modelled; the CONGA algorithm itself lives in internal/core and is
// driven by this package exactly as the ASIC pipeline drives the CONGA
// block.
package fabric

import (
	"conga/internal/core"
	"conga/internal/sim"
	"conga/internal/telemetry"
)

// Wire overheads, in bytes. Packets carry their transport payload length;
// links compute wire size from it.
const (
	// HeaderOverhead is Ethernet (18, incl. preamble-less frame with FCS)
	// + IPv4 (20) + TCP (20).
	HeaderOverhead = 58
	// MinFrame is the minimum Ethernet frame size; pure ACKs pad to it.
	MinFrame = 64
)

// Packet is the simulated unit of transfer. One struct serves both data and
// ACK segments; transports interpret the sequence fields.
//
// Field order and widths are part of the design (DESIGN.md §3.10). A packet
// is exactly three cache lines, which is also one of Go's size classes, so
// every packet the allocator hands out starts on a line boundary. A packet is
// its own event: the first line is the queue node of the one delivery it can
// have pending plus the link it is crossing, which is all a pop and the
// firing read. Everything a switch or link then reads on the hop — the hash,
// the destination, the sizes behind WireSize, the overlay header — is in the
// second line, so a hop on a packet that fell out of cache costs two adjacent
// line fills and no event object or ring slot beside them. The flow identity
// fills the rest of that line; a hop reads it only to compute a hash no
// transport stamped. SrcPort, which stays an int, opens the third line with
// the transport state only the two end hosts read. A layout test pins all
// three lines, the size and the alignment.
type Packet struct {
	ev   sim.Node
	link *Link // the link ev's arrival is for; meaningful while ev is pending

	// lbHash memoizes the load-balancing flow hash (see strategy.go's
	// flowHash): the hashed identity fields are immutable once the packet
	// enters the fabric, and every hop's strategy would otherwise recompute
	// the same 40-round byte hash. Zero means "not yet computed"; the pool
	// clears it on recycle.
	lbHash uint64

	DstHost int
	Payload int32 // payload bytes carried (0 for pure ACKs)

	// Overlay state, valid while the packet is inside the fabric.
	SrcLeaf int32
	DstLeaf int32
	Hdr     core.Header
	// Ctrl marks a leaf-to-leaf control packet (explicit CONGA feedback):
	// it terminates at the destination TEP instead of a host.
	Ctrl  bool
	IsAck bool
	// pooled marks packets allocated from a PacketPool; only those are
	// recycled on release (see PacketPool).
	pooled bool
	// SackN is how many of Sack's blocks are valid.
	SackN uint8

	// Flow identity (with DstHost above). FlowID is unique per (sub)flow
	// and is what ECMP and the flowlet table hash.
	FlowID  uint64
	SrcHost int32
	DstPort int32
	SrcPort int

	// Transport state (with Payload, IsAck and SackN above).
	Seq   int64 // first payload byte's offset
	AckNo int64 // cumulative ACK (valid when IsAck)
	// Sack carries up to SackN selective-acknowledgement ranges
	// [start, end) as offsets above AckNo — 32 bits each, as in the TCP
	// SACK option, which also limits them to 3 blocks when a timestamp
	// option is present. A fixed array keeps pure ACKs allocation-free on
	// the hot path.
	Sack [3][2]uint32
	// EchoTS carries the send timestamp for RTT measurement, echoing the
	// data packet's SentAt in the ACK.
	EchoTS sim.Time

	// Measurement.
	SentAt sim.Time
}

// SetLBHash stamps the packet's memoized load-balancing flow hash. h must
// be HashFlow of the packet's identity fields — callers precompute it once
// per connection; a wrong value would silently change every LB decision for
// the packet. Zero is ignored (it is the "not computed" sentinel).
func (p *Packet) SetLBHash(h uint64) { p.lbHash = h }

// record adds p to the packet trace tr as a kind event at where.
func (p *Packet) record(tr *telemetry.PacketTrace, now sim.Time, kind telemetry.TraceKind, where string) {
	tr.Record(now, kind, where, p.FlowID, int(p.SrcHost), p.DstHost, p.SrcPort, int(p.DstPort), p.Seq, int(p.Payload))
}

// WireSize returns the packet's size on an access link in bytes.
func (p *Packet) WireSize() int {
	s := int(p.Payload) + HeaderOverhead
	if s < MinFrame {
		s = MinFrame
	}
	return s
}

// FabricWireSize returns the packet's size on a fabric link, where it
// additionally carries the VXLAN/CONGA encapsulation.
func (p *Packet) FabricWireSize() int { return p.WireSize() + core.EncapOverhead }

// Receiver consumes packets delivered to a host port. Transport endpoints
// implement it.
type Receiver interface {
	Receive(p *Packet, now sim.Time)
}

// node is anything a link can deliver packets to: a switch or a host.
type node interface {
	handle(p *Packet, from *Link, now sim.Time)
}
