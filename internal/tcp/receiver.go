package tcp

import (
	"fmt"

	"conga/internal/fabric"
	"conga/internal/sim"
)

// Receiver is the receiving half of a connection: it reassembles the byte
// stream, acknowledges every arriving segment cumulatively, and buffers
// out-of-order data. Reordering (e.g. caused by flowlet moves or packet
// spraying) surfaces to the sender as duplicate ACKs, exactly the TCP
// behaviour CONGA's flowlet gap is sized to avoid.
type Receiver struct {
	host *fabric.Host
	port int

	rcvNxt int64
	// ooo holds disjoint, sorted out-of-order intervals [start, end);
	// the common few-hole case stays in the spanSet's inline array.
	ooo spanSet

	// ACK flow-hash cache. The reverse-direction 5-tuple is fixed per
	// sender, so the fabric LB hash is computed once and stamped on every
	// ACK. The identity key matters: a receiver port can serve many
	// senders (a caller-bound receiver, see StartFlowTo), and each has its own
	// reverse tuple.
	ackFlowID uint64
	ackSrc    int32 // data packet's SrcHost the cache was computed for
	ackPort   int   // data packet's SrcPort likewise
	ackHash   uint64

	// OnDelivered fires whenever the in-order prefix advances, with the
	// new prefix length. Applications use it to delimit responses.
	OnDelivered func(total int64, now sim.Time)

	// Counters.
	SegmentsIn  uint64
	BytesIn     uint64
	OutOfOrder  uint64
	DupSegments uint64
	AcksOut     uint64

	freed  bool
	inPool bool // currently parked on a FlowPool free list
}

// NewReceiver binds a receiver to (host, port).
func NewReceiver(host *fabric.Host, port int) *Receiver {
	r := &Receiver{}
	r.rebind(host, port)
	return r
}

// Rebind resets the (closed) receiver and binds it to a new (host, port).
// The OnDelivered callback is preserved, mirroring Sender.Rebind.
func (r *Receiver) Rebind(host *fabric.Host, port int) {
	if r.host != nil && !r.freed {
		panic("tcp: Rebind of a receiver that is still bound")
	}
	r.rebind(host, port)
}

// rebind resets all reassembly state; fresh construction and pool
// recycling both funnel through it (the FlowPool's reset invariant).
func (r *Receiver) rebind(host *fabric.Host, port int) {
	r.host = host
	r.port = port
	r.rcvNxt = 0
	r.ooo = spanSet{} // zero-assignment is the spanSet's full reset
	r.ackFlowID, r.ackSrc, r.ackPort, r.ackHash = 0, 0, 0, 0
	r.SegmentsIn, r.BytesIn = 0, 0
	r.OutOfOrder, r.DupSegments, r.AcksOut = 0, 0, 0
	r.freed = false
	host.Bind(port, r)
}

// Close unbinds the receiver.
func (r *Receiver) Close() {
	if r.freed {
		return
	}
	r.freed = true
	r.host.Unbind(r.port)
}

// Delivered returns the length of the contiguous received prefix.
func (r *Receiver) Delivered() int64 { return r.rcvNxt }

// Receive handles a data segment: update reassembly state and emit a
// cumulative ACK echoing the segment's timestamp.
func (r *Receiver) Receive(p *fabric.Packet, now sim.Time) {
	if p.IsAck || r.freed {
		return
	}
	r.SegmentsIn++
	r.BytesIn += uint64(p.Payload)
	start, end := p.Seq, p.Seq+int64(p.Payload)

	recent := -1
	switch {
	case end <= r.rcvNxt:
		r.DupSegments++
	case start <= r.rcvNxt:
		r.rcvNxt = end
		r.drainOOO()
		if r.OnDelivered != nil {
			r.OnDelivered(r.rcvNxt, now)
		}
	default:
		r.OutOfOrder++
		recent = r.insertOOO(start, end)
	}
	r.sendAck(p, recent, now)
}

// insertOOO merges [start, end) into the buffer and returns the index of
// the interval now containing it.
func (r *Receiver) insertOOO(start, end int64) int {
	return r.ooo.insert(start, end)
}

func (r *Receiver) drainOOO() {
	for len(r.ooo.spans) > 0 && r.ooo.spans[0].start <= r.rcvNxt {
		if r.ooo.spans[0].end > r.rcvNxt {
			r.rcvNxt = r.ooo.spans[0].end
		}
		r.ooo.popFront()
	}
}

func (r *Receiver) sendAck(data *fabric.Packet, recent int, now sim.Time) {
	r.AcksOut++
	ack := r.host.NewPacket()
	ack.FlowID = data.FlowID // same 5-tuple identity, reverse direction
	ack.DstHost = int(data.SrcHost)
	ack.SrcPort = r.port
	ack.DstPort = int32(data.SrcPort)
	ack.IsAck = true
	ack.AckNo = r.rcvNxt
	ack.EchoTS = data.SentAt
	ack.SentAt = now
	if r.ackFlowID != data.FlowID || r.ackSrc != data.SrcHost || r.ackPort != data.SrcPort {
		r.ackFlowID, r.ackSrc, r.ackPort = data.FlowID, data.SrcHost, data.SrcPort
		r.ackHash = fabric.HashFlow(data.FlowID, r.host.ID, int(data.SrcHost), r.port, data.SrcPort)
	}
	ack.SetLBHash(r.ackHash)
	// SACK blocks (3-block limit, as with a timestamp option on the
	// wire), carried as 32-bit offsets above the ACK. Per RFC 2018 the
	// first block reports the range containing the segment that triggered
	// this ACK; the rest rotate through the other buffered ranges so the
	// sender's scoreboard converges even with many holes.
	if n := len(r.ooo.spans); n > 0 {
		start := recent
		if start < 0 || start >= n {
			start = 0
		}
		for k := 0; k < n && k < 3; k++ {
			iv := r.ooo.spans[(start+k)%n]
			if iv.end-r.rcvNxt >= 1<<32 {
				// The sender's window, which Config.Validate keeps below
				// 2³¹ bytes, bounds how far above the ACK data arrives.
				panic(fmt.Sprintf("tcp: SACK block [%d, %d) lies 2³² or more above ACK %d", iv.start, iv.end, r.rcvNxt))
			}
			ack.Sack[ack.SackN] = [2]uint32{uint32(iv.start - r.rcvNxt), uint32(iv.end - r.rcvNxt)}
			ack.SackN++
		}
	}
	r.host.Send(ack, now)
}
