package tcp

import (
	"fmt"

	"conga/internal/fabric"
	"conga/internal/sim"
)

// FlowPool recycles Flow, Sender and Receiver objects within one engine,
// mirroring fabric.PacketPool and the event free list: the simulator is
// single-threaded per engine, so the pool needs no locking, and parallel
// sweeps use one pool per engine (per goroutine). With it, the steady
// state of an experiment's flow lifecycle — start, transfer, complete,
// start the next — allocates nothing: the Flow, both endpoints, their
// SACK spanSets and retransmit state, and the completion callback are all
// reused.
//
// Reset invariant: acquisition fully re-initializes an object through the
// same code path fresh construction uses (Sender.rebind, Receiver.rebind),
// so a recycled endpoint is bit-for-bit indistinguishable from a new one.
// Release clears the caller-owned callback fields (OnAllAcked, OnAcked,
// CAIncrease, OnDelivered) so a previous owner's hooks can never fire on a
// later flow; the bound-once internal callbacks (timers, completion) are
// kept, which is the point of pooling them.
//
// Ownership rule: a pooled Flow and its endpoints return to the pool when
// the flow completes, after the onDone callback has run. Callers must not
// retain the *Flow or its endpoints past that callback. Endpoints acquired
// directly via NewSender/NewReceiver stay with the caller until explicitly
// released with PutSender/PutReceiver (after Close).
//
// Every flow start goes through a pool: a harness keeps one per engine.
type FlowPool struct {
	flows     []*Flow
	senders   []*Sender
	receivers []*Receiver

	// Allocs counts pool misses (fresh heap allocations); Recycled counts
	// acquisitions served from the free lists. Exported for tests and the
	// benchmark harness.
	FlowAllocs       uint64
	FlowRecycled     uint64
	SenderAllocs     uint64
	SenderRecycled   uint64
	ReceiverAllocs   uint64
	ReceiverRecycled uint64
}

// NewFlowPool returns an empty pool for one engine.
func NewFlowPool() *FlowPool { return &FlowPool{} }

// NewSender is tcp.NewSender drawing from the pool.
func (p *FlowPool) NewSender(eng *sim.Engine, host *fabric.Host, flowID uint64, dstHost, dstPort int, cfg Config) *Sender {
	if n := len(p.senders); n > 0 {
		if err := cfg.Validate(); err != nil {
			panic(err)
		}
		s := p.senders[n-1]
		p.senders[n-1] = nil
		p.senders = p.senders[:n-1]
		p.SenderRecycled++
		s.inPool = false
		s.rebind(eng, host, flowID, dstHost, dstPort, cfg)
		return s
	}
	p.SenderAllocs++
	return NewSender(eng, host, flowID, dstHost, dstPort, cfg)
}

// PutSender releases a closed sender to the pool. Senders that are still
// open or already pooled are left alone.
func (p *FlowPool) PutSender(s *Sender) {
	if s == nil || !s.freed || s.inPool {
		return
	}
	s.CAIncrease = nil
	s.OnAllAcked = nil
	s.OnAcked = nil
	s.inPool = true
	p.senders = append(p.senders, s)
}

// NewReceiver is tcp.NewReceiver drawing from the pool.
func (p *FlowPool) NewReceiver(host *fabric.Host, port int) *Receiver {
	if n := len(p.receivers); n > 0 {
		r := p.receivers[n-1]
		p.receivers[n-1] = nil
		p.receivers = p.receivers[:n-1]
		p.ReceiverRecycled++
		r.inPool = false
		r.rebind(host, port)
		return r
	}
	p.ReceiverAllocs++
	return NewReceiver(host, port)
}

// PutReceiver releases a closed receiver to the pool. Receivers that are
// still bound or already pooled are left alone.
func (p *FlowPool) PutReceiver(r *Receiver) {
	if r == nil || !r.freed || r.inPool {
		return
	}
	r.OnDelivered = nil
	r.inPool = true
	p.receivers = append(p.receivers, r)
}

// getFlow acquires a Flow shell, from the free list when possible. The
// completion callback is bound once per object, on first construction.
func (p *FlowPool) getFlow() *Flow {
	if n := len(p.flows); n > 0 {
		f := p.flows[n-1]
		p.flows[n-1] = nil
		p.flows = p.flows[:n-1]
		p.FlowRecycled++
		f.inPool = false
		return f
	}
	p.FlowAllocs++
	f := &Flow{}
	f.onAllAckedFn = f.finish
	return f
}

// putFlow releases a completed flow and its endpoints. Called by
// Flow.finish after the onDone callback has returned, so a callback that
// starts a new flow reuses earlier releases, never the objects of the
// frame still on the stack.
func (p *FlowPool) putFlow(f *Flow) {
	if f.inPool {
		return
	}
	p.PutSender(f.Sender)
	p.PutReceiver(f.Receiver)
	f.Sender = nil
	f.Receiver = nil
	f.onDone = nil
	f.inPool = true
	p.flows = append(p.flows, f)
}

// CheckReturned reports the first kind of object — flows, senders, then
// receivers — of which the pool's free list does not hold exactly as many
// as the pool allocated. A drained run, whose every flow has completed and
// every endpoint been released, passes.
func (p *FlowPool) CheckReturned() error {
	switch {
	case uint64(len(p.flows)) != p.FlowAllocs:
		return fmt.Errorf("%d of the %d flows it allocated are back on its free list", len(p.flows), p.FlowAllocs)
	case uint64(len(p.senders)) != p.SenderAllocs:
		return fmt.Errorf("%d of the %d senders it allocated are back on its free list", len(p.senders), p.SenderAllocs)
	case uint64(len(p.receivers)) != p.ReceiverAllocs:
		return fmt.Errorf("%d of the %d receivers it allocated are back on its free list", len(p.receivers), p.ReceiverAllocs)
	}
	return nil
}
