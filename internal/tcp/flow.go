package tcp

import (
	"conga/internal/fabric"
	"conga/internal/sim"
)

// Flow is a one-shot transfer: size bytes from one host to another over a
// fresh connection, reporting its completion time. Workload generators
// start one Flow per arrival through a FlowPool, which recycles it.
type Flow struct {
	Sender   *Sender
	Receiver *Receiver // nil when the caller owns the receiver (StartFlowTo)
	Size     int64
	Started  sim.Time

	// pool receives the flow and its endpoints back after completion;
	// onDone is the caller's completion callback. onAllAckedFn is finish
	// bound once per Flow object, so wiring a sender's completion hook
	// allocates nothing on reuse.
	pool         *FlowPool
	onDone       func(f *Flow, now sim.Time)
	onAllAckedFn func(now sim.Time)
	inPool       bool
}

// StartFlow begins transferring size bytes from src to dst immediately,
// drawing the Flow and both endpoints from the pool: it binds a receiver on
// dst — the destination port is allocated first, then the sender's — and
// closes it when the flow completes. onDone (optional) receives the flow
// and its completion time; both endpoints are closed before the callback so
// ports recycle even if the callback panics the experiment. The flow
// returns to the pool right after onDone, so the callback must not retain
// the *Flow or its endpoints.
func (p *FlowPool) StartFlow(eng *sim.Engine, src, dst *fabric.Host, flowID uint64, size int64,
	cfg Config, onDone func(f *Flow, now sim.Time)) *Flow {
	dstPort := dst.AllocPort()
	recv := p.NewReceiver(dst, dstPort)
	f := p.StartFlowTo(eng, src, flowID, dst.ID, dstPort, size, cfg, onDone)
	f.Receiver = recv
	return f
}

// StartFlowTo is StartFlow toward a receiver the caller already bound at
// (dstHost, dstPort) and keeps: the flow has no receiver side, so only the
// sender closes at completion. The space-parallel harness uses it for
// receivers that live in another partition domain (see DESIGN.md §3.6);
// a receiver is purely reactive, so one left bound re-ACKs a late
// retransmit exactly as a lingering endpoint would.
func (p *FlowPool) StartFlowTo(eng *sim.Engine, src *fabric.Host, flowID uint64,
	dstHost, dstPort int, size int64, cfg Config, onDone func(f *Flow, now sim.Time)) *Flow {
	if size <= 0 {
		size = 1
	}
	now := eng.Now()
	f := p.getFlow()
	f.pool = p
	f.onDone = onDone
	f.Size = size
	f.Started = now
	f.Sender = p.NewSender(eng, src, flowID, dstHost, dstPort, cfg)
	f.Sender.OnAllAcked = f.onAllAckedFn
	f.Sender.Queue(size, now)
	return f
}

// finish is the flow's completion path (the sender's OnAllAcked): close
// the endpoints first so ports recycle even if the callback panics, run
// the caller's callback, then hand everything back to the pool.
func (f *Flow) finish(now sim.Time) {
	f.Sender.Close()
	if f.Receiver != nil {
		f.Receiver.Close()
	}
	if f.onDone != nil {
		f.onDone(f, now)
	}
	f.pool.putFlow(f)
}

// FCT returns the flow completion time given the completion timestamp.
func (f *Flow) FCT(done sim.Time) sim.Time { return done - f.Started }
