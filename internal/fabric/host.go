package fabric

import (
	"fmt"

	"conga/internal/sim"
	"conga/internal/telemetry"
)

// Host is an end system: one access link up to its leaf, and a demux table
// delivering arriving packets to bound transport endpoints by destination
// port. Transports (internal/tcp, internal/mptcp) attach to hosts.
type Host struct {
	ID   int
	Leaf int // leaf switch this host attaches to

	out       *Link // host → leaf
	pool      *PacketPool
	recv      portTable
	nextPort  int
	maxEphem  int    // AllocPort draws from [minPort, maxEphem]
	TxPackets uint64 // packets handed to Send
	RxPackets uint64
	RxBytes   uint64

	// Telemetry hooks, nil when telemetry is off. tcpTel is shared by
	// every transport on the engine (fetched via TCPCounters at sender
	// construction); trace records host-level send/recv events.
	tcpTel    *telemetry.TCPCounters
	trace     *telemetry.PacketTrace
	traceName string
}

// The dynamic local-port range AllocPort draws from. minPort matches the
// traditional ephemeral-range start; maxPort bounds the space so the
// sequence wraps instead of growing without limit at large-fabric flow
// counts (ports must also stay well inside the table's int32 keys).
const (
	minPort = 10000
	maxPort = 1<<26 - 1
)

func newHost(id, leaf int, pool *PacketPool) *Host {
	return &Host{ID: id, Leaf: leaf, pool: pool, nextPort: minPort, maxEphem: maxPort}
}

// LimitEphemeralPorts shrinks AllocPort's range to [minPort, ceil]. The
// parallel harness pre-assigns receiver ports above that ceiling before the
// run, so sender-side allocations (which happen concurrently, one domain
// per goroutine, against this host's domain-local table) can never collide
// with them. Must be called before any AllocPort.
func (h *Host) LimitEphemeralPorts(ceil int) {
	if ceil <= minPort {
		panic(fmt.Sprintf("fabric: host %d ephemeral-port ceiling %d below floor %d", h.ID, ceil, minPort))
	}
	h.maxEphem = ceil
}

// NewPacket returns a zeroed packet from the fabric's pool. The packet is
// owned by the fabric once passed to Send: the terminal hop (delivery or
// drop) releases it, so the caller must not retain or reuse the pointer.
func (h *Host) NewPacket() *Packet { return h.pool.Get() }

// Bind registers r to receive packets addressed to port. It panics if the
// port is taken — two endpoints on one port is always a harness bug — or
// out of range (the demux table reserves 0 as its empty sentinel).
func (h *Host) Bind(port int, r Receiver) {
	if port <= 0 || port > 0x7FFFFFFF {
		panic(fmt.Sprintf("fabric: host %d Bind(%d): port out of range", h.ID, port))
	}
	if !h.recv.insert(port, r) {
		panic(fmt.Sprintf("fabric: host %d port %d already bound", h.ID, port))
	}
}

// Unbind releases a port.
func (h *Host) Unbind(port int) { h.recv.delete(port) }

// AllocPort returns a fresh unused local port from [minPort, maxPort] (or
// the lower ceiling set by LimitEphemeralPorts), wrapping around when the
// space is exhausted and skipping ports still bound to live receivers. It
// panics only if every port in the range is live — at which point the
// simulation has tens of millions of concurrent endpoints on one host and
// something else is already wrong.
func (h *Host) AllocPort() int { return h.allocPortIn(minPort, h.maxEphem) }

// allocPortIn is AllocPort over an explicit range (tests shrink it to
// exercise wraparound and exhaustion without 2²⁶ iterations).
func (h *Host) allocPortIn(lo, hi int) int {
	for span := hi - lo + 1; span > 0; span-- {
		p := h.nextPort
		if p < lo || p > hi {
			p = lo // wrap: previous allocation used hi (or the range moved)
		}
		h.nextPort = p + 1
		if !h.recv.has(p) {
			return p
		}
	}
	panic(fmt.Sprintf("fabric: host %d port space [%d, %d] exhausted (%d live receivers)",
		h.ID, lo, hi, h.recv.len()))
}

// Send transmits p on the host's access link. The caller must have filled
// the addressing fields. A segment that continues the flow backlogged at the
// NIC queue's tail folds into it (Link.fold), the way segmentation offload
// holds a flow's backlog, and is cut back into its frame as the NIC drains.
func (h *Host) Send(p *Packet, now sim.Time) {
	p.SrcHost = int32(h.ID)
	h.TxPackets++
	if h.trace != nil {
		p.record(h.trace, now, telemetry.TraceSend, h.traceName)
	}
	if !h.out.fold(p) {
		h.out.Send(p, now)
	}
}

// TCPCounters returns the engine-wide TCP telemetry counters, or nil when
// telemetry is off. Transports fetch this once at construction and bump it
// through a nil-checked pointer.
func (h *Host) TCPCounters() *telemetry.TCPCounters { return h.tcpTel }

// PacketTrace returns the engine-wide packet trace, or nil when tracing is
// off. Transports fetch it at construction to fire flight-recorder
// triggers (e.g. first RTO) through its nil-safe methods.
func (h *Host) PacketTrace() *telemetry.PacketTrace { return h.trace }

// AccessLink returns the host's uplink to its leaf, for counters and fault
// injection.
func (h *Host) AccessLink() *Link { return h.out }

// handle implements node: packets arriving from the leaf are demuxed to the
// bound receiver. Packets to unbound ports are dropped silently, like a
// host RST-ing unknown traffic; a counter records them for debugging.
// Delivery is the end of a packet's life: once the receiver returns, the
// packet goes back to the pool, so receivers must copy anything they keep.
func (h *Host) handle(p *Packet, _ *Link, now sim.Time) {
	h.RxPackets++
	h.RxBytes += uint64(p.WireSize())
	if h.trace != nil {
		p.record(h.trace, now, telemetry.TraceRecv, h.traceName)
	}
	if r, ok := h.recv.get(int(p.DstPort)); ok {
		r.Receive(p, now)
	}
	h.pool.Put(p)
}
