package sim

import (
	"fmt"
	"sync"
)

// ParallelEngine executes several single-threaded Engines in lockstep
// bounded time windows — conservative space-parallel simulation in the
// YAWNS/bounded-lag style. The caller partitions the model into domains
// with one engine each, such that any cross-domain interaction scheduled by
// an event at time t takes effect no earlier than t+window (the lookahead
// guarantee; for the CONGA fabric the window is the leaf↔spine propagation
// delay). Under that guarantee, all domains can execute the half-open
// window [base, base+window) concurrently without ever receiving an event
// for a time they have already passed.
//
// Per window, each worker goroutine:
//
//  1. runs its engine to the window edge (events with t < base+window),
//  2. waits on a barrier so every domain's cross-domain sends are complete,
//  3. runs its exchange callback, which drains incoming mailboxes and
//     schedules the deliveries (all at t ≥ base+window) on its own engine,
//  4. waits on a second barrier whose last arriver decides, with every
//     worker parked, whether the run is done and where the next window
//     starts (fast-forwarding over idle gaps to the earliest pending
//     event).
//
// Determinism: each engine is only ever advanced by its own worker, the
// barriers order mailbox writes before reads, and exchange callbacks are
// required to merge deliveries in a scheduling-independent order (the
// fabric merges by (time, source domain, source sequence)). A run is then
// bit-reproducible for a fixed engine count and partition, regardless of
// how the goroutines are scheduled.
//
// Termination matches Engine.Run's spirit: the run stops when no engine
// has live (non-daemon) events left, or when the next window would start
// past the until bound. Unlike a sequential Run(until), trailing
// daemon-only housekeeping after the last live event is not executed — it
// could no longer affect any observable outcome.
type ParallelEngine struct {
	engines  []*Engine
	window   Time
	exchange []func(windowEnd Time)

	// Window state, written only by the decide step (one goroutine, all
	// others parked on the barrier) and read by workers after the barrier
	// release that the write happened-before.
	base  Time
	runTo Time
	until Time
	done  bool

	bar barrier
}

// NewParallelEngine couples the given per-domain engines into a window
// runner. All engines must start at the same clock (normally zero) and the
// window must be positive and no larger than the model's cross-domain
// lookahead.
func NewParallelEngine(engines []*Engine, window Time) *ParallelEngine {
	if len(engines) == 0 {
		panic("sim: ParallelEngine needs at least one engine")
	}
	if window <= 0 {
		panic(fmt.Sprintf("sim: ParallelEngine window %v must be positive", window))
	}
	for _, e := range engines[1:] {
		if e.Now() != engines[0].Now() {
			panic("sim: ParallelEngine engines must start at the same clock")
		}
	}
	pe := &ParallelEngine{
		engines:  engines,
		window:   window,
		exchange: make([]func(Time), len(engines)),
	}
	pe.bar.init(len(engines))
	return pe
}

// Engines returns the per-domain engines.
func (pe *ParallelEngine) Engines() []*Engine { return pe.engines }

// SetExchange installs domain d's cross-domain merge callback. It runs on
// domain d's worker goroutine once per window, after every domain has
// reached the window edge, and must schedule any deliveries destined for
// domain d on engines[d] at times ≥ windowEnd. A nil callback is valid for
// domains that never receive cross-domain traffic.
func (pe *ParallelEngine) SetExchange(d int, fn func(windowEnd Time)) {
	pe.exchange[d] = fn
}

// Run executes windows until no live events remain anywhere or the next
// window would begin after until (events with t ≤ until still run, matching
// Engine.Run's closed interval). It returns the latest engine clock.
// Run must not be re-entered concurrently.
func (pe *ParallelEngine) Run(until Time) Time {
	if len(pe.engines) == 1 {
		// One domain is just a sequential run; skip the barrier machinery.
		return pe.engines[0].Run(until)
	}
	pe.until = until
	pe.base = pe.engines[0].Now()
	pe.decide(true)
	if !pe.done {
		var wg sync.WaitGroup
		wg.Add(len(pe.engines))
		for d := range pe.engines {
			go func(d int) {
				defer wg.Done()
				pe.worker(d)
			}(d)
		}
		wg.Wait()
	}
	max := pe.engines[0].Now()
	for _, e := range pe.engines[1:] {
		if e.Now() > max {
			max = e.Now()
		}
	}
	return max
}

// worker is one domain's window loop.
func (pe *ParallelEngine) worker(d int) {
	eng := pe.engines[d]
	fn := pe.exchange[d]
	for {
		windowEnd := pe.base + pe.window
		eng.Run(pe.runTo)
		// Barrier A: every domain has reached the window edge, so all
		// mailbox writes for this window happened-before the release.
		pe.bar.wait(nil)
		if fn != nil {
			fn(windowEnd)
		}
		// Barrier B: merges are complete everywhere; the last arriver
		// decides termination and the next window with all workers parked.
		pe.bar.wait(func() { pe.decide(false) })
		if pe.done {
			return
		}
	}
}

// decide computes, with exclusive access to every engine, whether any live
// work remains and where the next window starts. first seeds the initial
// window from the engines' starting clock.
func (pe *ParallelEngine) decide(first bool) {
	live := 0
	min := MaxTime
	for _, e := range pe.engines {
		live += e.Live()
		if t, ok := e.NextAt(); ok && t < min {
			min = t
		}
	}
	next := pe.base
	if !first {
		next += pe.window
	}
	// Fast-forward over idle gaps: nothing anywhere is scheduled before
	// min, so the next window can start there. This makes sparse phases
	// (drain, long RTOs) cost one barrier round instead of thousands.
	if min > next {
		next = min
	}
	if live == 0 || next > pe.until {
		pe.done = true
		return
	}
	pe.base = next
	pe.runTo = next + pe.window - 1
	if pe.runTo > pe.until || pe.runTo < next { // clamp; also guards overflow
		pe.runTo = pe.until
	}
}

// barrier is a reusable phase barrier. The last arriver may run an action
// while every other participant is parked, which is how the window runner
// gets a safe global snapshot between phases without a second lock.
type barrier struct {
	mu    sync.Mutex
	cond  sync.Cond
	n     int
	count int
	phase uint64
}

func (b *barrier) init(n int) {
	b.n = n
	b.cond.L = &b.mu
}

// wait blocks until all n participants have called it. The last arriver
// runs action (if non-nil) before releasing the others; everything it
// writes is ordered before their return.
func (b *barrier) wait(action func()) {
	b.mu.Lock()
	p := b.phase
	b.count++
	if b.count == b.n {
		if action != nil {
			action()
		}
		b.count = 0
		b.phase++
		b.mu.Unlock()
		b.cond.Broadcast()
		return
	}
	for b.phase == p {
		b.cond.Wait()
	}
	b.mu.Unlock()
}
