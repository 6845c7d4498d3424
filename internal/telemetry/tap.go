package telemetry

import (
	"sync/atomic"
	"time"

	"conga/internal/sim"
)

// Progress is harness-level run progress, filled at publish time by the
// closure the harness registers with SetProgress.
type Progress struct {
	FlowsGenerated int    `json:"flows_generated"` // workload flows started (Incast: rounds)
	FlowsCompleted int    `json:"flows_completed"` // and finished
	Events         uint64 `json:"events"`          // executed engine events
}

// Snapshot is one immutable published view of a registry: a small header
// (the JSON run headline) and the counters, series and paths sink files a
// flush at the same safe point would write, copied there. Nothing mutates a
// published snapshot, which makes concurrent readers race-free.
type Snapshot struct {
	Seq      uint64      `json:"seq"`         // 1-based publish count
	SimTime  sim.Time    `json:"sim_time_ns"` // the engine's clock at the safe point
	Wall     int64       `json:"wall_ns"`     // wall-clock publish time, unix nanoseconds
	Done     bool        `json:"done"`        // the final snapshot, published after the engine stops
	Progress Progress    `json:"progress"`
	Files    []*SinkFile `json:"-"`
}

// tapInterval is the minimum simulated time between tap snapshots.
const tapInterval = sim.Millisecond

// Tap is the lock-free handoff between one engine and any number of reader
// goroutines: the engine stores each new Snapshot with one atomic pointer
// store and readers Load it whenever they like. No lock, channel or
// back-pressure — a slow reader sees fewer snapshots — and no event is
// scheduled for it, so an attached reader cannot perturb the simulation.
type Tap struct {
	cur     atomic.Pointer[Snapshot]
	wallMin time.Duration // Options.TapWall
}

// Load returns the latest published snapshot, or nil before the first
// publish. Safe to call from any goroutine and on a nil receiver.
func (t *Tap) Load() *Snapshot {
	if t == nil {
		return nil
	}
	return t.cur.Load()
}

// SetProgress registers the closure that fills Snapshot.Progress; it runs
// on the engine goroutine.
func (r *Registry) SetProgress(fn func() Progress) {
	if r != nil {
		r.progress = fn
	}
}

// PublishTap publishes a snapshot if the registry has a tap and both
// throttle gates (sim-time interval, wall-clock minimum) have elapsed. The
// fabric calls it from the DRE-decay ticker — an existing safe point — so
// publishing adds no events and consumes no engine randomness.
func (r *Registry) PublishTap(now sim.Time) {
	if r == nil || r.tap == nil {
		return
	}
	if last := r.tap.Load(); last != nil && (now-last.SimTime < tapInterval ||
		r.tap.wallMin > 0 && time.Now().UnixNano()-last.Wall < int64(r.tap.wallMin)) {
		return
	}
	r.publish(now, false)
}

// FinishTap publishes the final snapshot (Done=true), unconditionally. The
// harness calls it after the engine stops.
func (r *Registry) FinishTap(now sim.Time) {
	if r != nil && r.tap != nil {
		r.publish(now, true)
	}
}

func (r *Registry) publish(now sim.Time, done bool) {
	snap := &Snapshot{Seq: 1, SimTime: now, Wall: time.Now().UnixNano(), Done: done}
	if last := r.tap.Load(); last != nil {
		snap.Seq = last.Seq + 1
	}
	if r.progress != nil {
		snap.Progress = r.progress()
	}
	r.Collect()
	snap.Files = r.sinkFiles(true)
	r.tap.cur.Store(snap)
}
