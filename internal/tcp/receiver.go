package tcp

import (
	"fmt"

	"conga/internal/fabric"
	"conga/internal/sim"
	"conga/internal/telemetry"
)

// Linux's quick-ACK budget (TCP_MAX_QUICKACKS) and the delayed-ACK timeout
// (DESIGN §6: Linux's 40 ms floor is far above the 1–10 ms MinRTO every
// experiment runs, so the timer is scaled to the fabric's RTT instead).
const (
	quickAcks   = 16
	delAckDelay = 40 * sim.Microsecond
)

// Receiver is the receiving half of a connection: it reassembles the byte
// stream, buffers out-of-order data, and acknowledges cumulatively the way
// Linux does (__tcp_ack_snd_check): at once for the first quickAcks ACKs of
// a connection and again after duplicate data, for out-of-order or
// duplicate data, for any segment arriving while data is buffered out of
// order (so a hole fill ACKs at once), for a segment shorter than the
// largest seen (the pushed tail, which the application reads at once), and
// for a second full in-order segment; a lone full in-order segment holds
// its ACK for at most delAckDelay. Reordering (e.g. caused by flowlet moves
// or packet spraying) surfaces to the sender as duplicate ACKs, exactly the
// TCP behaviour CONGA's flowlet gap is sized to avoid.
type Receiver struct {
	eng  *sim.Engine
	host *fabric.Host
	port int

	rcvNxt int64
	// ooo holds disjoint, sorted out-of-order intervals [start, end);
	// the common few-hole case stays in the spanSet's inline array.
	ooo spanSet

	// Delayed-ACK state. quick counts the ACKs left in quick-ACK mode;
	// rcvMSS is the largest payload seen, Linux's estimate of the
	// sender's MSS; held reports an in-order segment waiting for its ACK;
	// heldTS is the SentAt of the oldest segment the next ACK covers,
	// which that ACK echoes (RFC 7323 §4.3). delAck is the timer that
	// sends a held ACK.
	quick  int
	rcvMSS int32
	held   bool
	heldTS sim.Time
	delAck sim.Node

	// ACK flow-hash cache. The reverse-direction 5-tuple is fixed per
	// sender, so the fabric LB hash is computed once and stamped on every
	// ACK. The identity key matters: a receiver port can serve many
	// senders (a caller-bound receiver, see StartFlowTo), and each has its own
	// reverse tuple. A held ACK goes to the identity cached here.
	ackFlowID uint64
	ackSrc    int32 // data packet's SrcHost the cache was computed for
	ackPort   int   // data packet's SrcPort likewise
	ackHash   uint64

	// OnDelivered fires whenever the in-order prefix advances, with the
	// new prefix length. Applications use it to delimit responses.
	OnDelivered func(total int64, now sim.Time)

	// Counters. AcksOut counts every ACK sent, DelayedAcks those the
	// delayed-ACK timer sent.
	SegmentsIn  uint64
	BytesIn     uint64
	OutOfOrder  uint64
	DupSegments uint64
	AcksOut     uint64
	DelayedAcks uint64

	// tel mirrors the ACK counters into the engine-wide telemetry
	// registry; nil when telemetry is off.
	tel    *telemetry.TCPCounters
	freed  bool
	inPool bool // currently parked on a FlowPool free list
}

// NewReceiver binds a receiver to (host, port); eng runs its delayed-ACK
// timer and must be the engine host's packets arrive on.
func NewReceiver(eng *sim.Engine, host *fabric.Host, port int) *Receiver {
	r := &Receiver{}
	r.rebind(eng, host, port)
	return r
}

// Rebind resets the (closed) receiver and binds it to a new (host, port).
// The OnDelivered callback is preserved, mirroring Sender.Rebind.
func (r *Receiver) Rebind(eng *sim.Engine, host *fabric.Host, port int) {
	if r.host != nil && !r.freed {
		panic("tcp: Rebind of a receiver that is still bound")
	}
	r.rebind(eng, host, port)
}

// rebind resets all reassembly state; fresh construction and pool
// recycling both funnel through it (the FlowPool's reset invariant). The
// receiver is closed or new, so its delayed-ACK timer is idle.
func (r *Receiver) rebind(eng *sim.Engine, host *fabric.Host, port int) {
	r.eng = eng
	r.host = host
	r.port = port
	r.rcvNxt = 0
	r.ooo = spanSet{} // zero-assignment is the spanSet's full reset
	r.quick, r.rcvMSS, r.held, r.heldTS = quickAcks, 0, false, 0
	r.ackFlowID, r.ackSrc, r.ackPort, r.ackHash = 0, 0, 0, 0
	r.SegmentsIn, r.BytesIn = 0, 0
	r.OutOfOrder, r.DupSegments, r.AcksOut, r.DelayedAcks = 0, 0, 0, 0
	r.tel = host.TCPCounters()
	r.freed = false
	host.Bind(port, r)
}

// Close unbinds the receiver and cancels a held ACK's timer.
func (r *Receiver) Close() {
	if r.freed {
		return
	}
	r.freed = true
	r.eng.CancelNode(&r.delAck)
	r.host.Unbind(r.port)
}

// Delivered returns the length of the contiguous received prefix.
func (r *Receiver) Delivered() int64 { return r.rcvNxt }

// Receive handles a data segment: update reassembly state, then ACK it at
// once or hold the ACK, by the rule in the Receiver doc.
func (r *Receiver) Receive(p *fabric.Packet, now sim.Time) {
	if p.IsAck || r.freed {
		return
	}
	r.SegmentsIn++
	r.BytesIn += uint64(p.Payload)
	start, end := p.Seq, p.Seq+int64(p.Payload)

	// A segment arriving with data buffered out of order, a short one, and
	// a second full one waiting are ACKed at once, as in quick-ACK mode.
	immediate := r.quick > 0 || len(r.ooo.spans) > 0 || p.Payload < r.rcvMSS || r.held
	r.rcvMSS = max(r.rcvMSS, p.Payload)
	recent := -1
	switch {
	case end <= r.rcvNxt:
		r.DupSegments++
		r.quick = quickAcks
		immediate = true
	case start <= r.rcvNxt:
		r.rcvNxt = end
		r.drainOOO()
		if r.OnDelivered != nil {
			r.OnDelivered(r.rcvNxt, now)
		}
	default:
		r.OutOfOrder++
		recent = r.insertOOO(start, end)
		immediate = true
	}
	if r.ackFlowID != p.FlowID || r.ackSrc != p.SrcHost || r.ackPort != p.SrcPort {
		r.ackFlowID, r.ackSrc, r.ackPort = p.FlowID, p.SrcHost, p.SrcPort
		r.ackHash = fabric.HashFlow(p.FlowID, r.host.ID, int(p.SrcHost), r.port, p.SrcPort)
	}
	if !r.held {
		r.heldTS = p.SentAt
	}
	if !immediate {
		r.held = true
		r.eng.AtNode(now+delAckDelay, &r.delAck, (*delAckEvent)(r))
		return
	}
	r.sendAck(recent, now)
}

// delAckEvent is Receiver seen as the delayed-ACK timer's handler, which
// keeps Fire off Receiver's exported method set.
type delAckEvent Receiver

func (d *delAckEvent) Fire(now sim.Time) {
	r := (*Receiver)(d)
	r.DelayedAcks++
	if r.tel != nil {
		r.tel.DelayedAcks++
	}
	r.sendAck(-1, now)
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

// sendAck sends the cumulative ACK to the cached sender identity, echoing
// heldTS, and ends any hold; recent indexes the out-of-order range the
// triggering segment landed in, or is −1.
func (r *Receiver) sendAck(recent int, now sim.Time) {
	r.AcksOut++
	if r.tel != nil {
		r.tel.Acks++
	}
	if r.quick > 0 {
		r.quick--
	}
	if r.held {
		r.held = false
		r.eng.CancelNode(&r.delAck)
	}
	ack := r.host.NewPacket()
	ack.FlowID = r.ackFlowID // same 5-tuple identity, reverse direction
	ack.DstHost = int(r.ackSrc)
	ack.SrcPort = r.port
	ack.DstPort = int32(r.ackPort)
	ack.IsAck = true
	ack.AckNo = r.rcvNxt
	ack.EchoTS = r.heldTS
	ack.SentAt = now
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
