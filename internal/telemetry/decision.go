package telemetry

import (
	"fmt"
	"math"
	"sort"

	"conga/internal/sim"
)

// DecisionReason classifies why a SelectUplink call produced its verdict.
type DecisionReason uint8

const (
	// ReasonSticky is a packet riding an active flowlet: no decision was
	// made, the packet followed the installed uplink.
	ReasonSticky DecisionReason = iota
	// ReasonNewFlowlet is the first flowlet of a flow (no prior entry in
	// the flowlet table).
	ReasonNewFlowlet
	// ReasonExpired is a flowlet whose inactivity gap elapsed, forcing a
	// fresh congestion-aware pick.
	ReasonExpired
	// ReasonEvicted is an active flowlet whose installed uplink became
	// unusable (link failure), forcing an immediate re-pick.
	ReasonEvicted
)

var reasonNames = []string{"sticky", "new-flowlet", "expired", "evicted"}

// String returns the reason name used in flushed decision files.
func (d DecisionReason) String() string { return nameOf(reasonNames, d) }

// DecisionEvent is one recorded SelectUplink outcome.
type DecisionEvent struct {
	T       sim.Time
	SrcLeaf int
	DstLeaf int
	Uplink  int
	Reason  DecisionReason
	// AgeNs is the age of the winning uplink's remote congestion metric
	// since its last piggybacked feedback update, in simulated nanoseconds;
	// -1 means the entry had never been fed back (cold), or the event is a
	// sticky hit (no table consulted).
	AgeNs int64
	// Metrics is the candidate vector the decision minimized over:
	// combined max(local DRE, remote metric) per uplink. Empty for sticky
	// hits (the table is not consulted on that path).
	Metrics []uint8
}

// DecisionTrace is a capture buffer of decision events: PacketTrace's
// head/tail/reservoir policies without its filter and triggers.
type DecisionTrace struct{ capture[DecisionEvent] }

func newDecisionTrace(capacity int, mode CaptureMode) *DecisionTrace {
	return &DecisionTrace{newCapture[DecisionEvent](capacity, mode)}
}

// record offers an event. metrics is copied into the retained slot, over
// the evictee's backing array when there is one, so a full trace stops
// allocating.
func (tr *DecisionTrace) record(t sim.Time, srcLeaf, dstLeaf, uplink int, reason DecisionReason, ageNs int64, metrics []uint8) {
	if tr == nil {
		return
	}
	if ev := tr.offer(); ev != nil {
		*ev = DecisionEvent{T: t, SrcLeaf: srcLeaf, DstLeaf: dstLeaf, Uplink: uplink,
			Reason: reason, AgeNs: ageNs, Metrics: append(ev.Metrics[:0], metrics...)}
	}
}

// Events returns the recorded events in time order (same aliasing contract
// as PacketTrace.Events).
func (tr *DecisionTrace) Events() []DecisionEvent {
	if tr == nil {
		return nil
	}
	return tr.ordered(func(e *DecisionEvent) sim.Time { return e.T })
}

// Info returns the trace's capture policy and outcome in the shared
// CaptureInfo shape (trigger fields stay zero: decision traces have no
// triggers). Safe on a nil receiver.
func (tr *DecisionTrace) Info() CaptureInfo {
	if tr == nil {
		return CaptureInfo{}
	}
	return tr.info()
}

// DecisionHooks is the per-leaf decision-plane hook struct: core.Leaf holds
// a nil pointer to one (zero overhead when off) and reports every
// SelectUplink outcome through it. Each instance is written only by its
// owning leaf; the per-leaf structs merge in leaf order at flush.
type DecisionHooks struct {
	Leaf    int
	uplinks int
	leaves  int

	// Reason counters (monotonic).
	Sticky, NewFlowlet, Expired, Evicted uint64
	// Cold counts congestion-aware picks whose winning table entry had
	// never received feedback (AgeNs = -1).
	Cold uint64

	// flowlets/bytes are the path load matrices, [uplink*leaves+dstLeaf]:
	// flowlet installs routed and payload bytes sent per
	// (uplink, destination leaf) pair.
	flowlets []uint64
	bytes    []uint64

	// Feedback-staleness accumulation window, drained by TakeStaleness at
	// the DRE safe point.
	staleSum int64
	staleN   int64

	trace *DecisionTrace // shared bounded trace; nil unless enabled (sequential only)
}

// Decision records one SelectUplink outcome. ageNs is the winning remote
// metric's feedback age (-1 = cold or sticky); metrics is the candidate
// vector (borrowed — copied if retained). Safe on a nil receiver so the
// core hook site is a single branch.
func (h *DecisionHooks) Decision(t sim.Time, dstLeaf, uplink int, reason DecisionReason, ageNs int64, metrics []uint8) {
	if h == nil {
		return
	}
	switch reason {
	case ReasonSticky:
		h.Sticky++
	case ReasonNewFlowlet:
		h.NewFlowlet++
	case ReasonExpired:
		h.Expired++
	case ReasonEvicted:
		h.Evicted++
	}
	if reason != ReasonSticky && uplink >= 0 {
		if i := uplink*h.leaves + dstLeaf; i < len(h.flowlets) {
			h.flowlets[i]++
		}
		if ageNs >= 0 {
			h.staleSum += ageNs
			h.staleN++
		} else {
			h.Cold++
		}
	}
	h.trace.record(t, h.Leaf, dstLeaf, uplink, reason, ageNs, metrics)
}

// AddBytes accounts payload bytes leaving on an uplink toward a
// destination leaf. Called by the fabric layer per uplink send; safe on a
// nil receiver.
func (h *DecisionHooks) AddBytes(uplink, dstLeaf, n int) {
	if h == nil || uplink < 0 {
		return
	}
	if i := uplink*h.leaves + dstLeaf; i < len(h.bytes) {
		h.bytes[i] += uint64(n)
	}
}

// TakeStaleness drains the feedback-staleness window: the mean feedback
// age (ns) over the congestion-aware decisions since the last call. ok is
// false when the window saw no aged decisions.
func (h *DecisionHooks) TakeStaleness() (mean float64, ok bool) {
	if h == nil || h.staleN == 0 {
		return 0, false
	}
	mean = float64(h.staleSum) / float64(h.staleN)
	h.staleSum, h.staleN = 0, 0
	return mean, true
}

// PathRow is one non-empty cell of a leaf's path load matrix.
type PathRow struct {
	Leaf    int // source leaf
	Uplink  int
	DstLeaf int
	// Flowlets counts flowlet routings onto this (uplink, dstLeaf) path;
	// Bytes counts payload bytes sent on it.
	Flowlets uint64
	Bytes    uint64
}

// PathSummary condenses one leaf's matrix into balance figures over its
// per-uplink byte totals.
type PathSummary struct {
	Leaf     int
	Flowlets uint64
	Bytes    uint64
	// Imbalance is max/mean of per-uplink byte totals: 1.0 is a perfect
	// spread, k means the hottest uplink carries k× the average.
	Imbalance float64
	// Entropy is the Shannon entropy of the uplink byte shares normalized
	// by log2(uplinks): 1.0 is uniform, 0 is single-path.
	Entropy float64
}

// Decisions returns (creating on first use) the decision hooks for a leaf,
// or nil when the decision plane is off — callers wire unconditionally,
// exactly like Link. uplinks and leaves size the path matrices.
func (r *Registry) Decisions(leaf, uplinks, leaves int) *DecisionHooks {
	if r == nil || !r.opts.Decisions {
		return nil
	}
	for _, h := range r.decisions {
		if h.Leaf == leaf {
			return h
		}
	}
	h := &DecisionHooks{
		Leaf:     leaf,
		uplinks:  uplinks,
		leaves:   leaves,
		flowlets: make([]uint64, uplinks*leaves),
		bytes:    make([]uint64, uplinks*leaves),
		trace:    r.decTrace,
	}
	r.decisions = append(r.decisions, h)
	return h
}

// DecisionTrace returns the shared bounded decision trace, or nil when
// disabled.
func (r *Registry) DecisionTrace() *DecisionTrace {
	if r == nil {
		return nil
	}
	return r.decTrace
}

// DecisionHooksAll returns every leaf's hooks sorted by leaf ID.
func (r *Registry) DecisionHooksAll() []*DecisionHooks {
	if r == nil {
		return nil
	}
	out := append([]*DecisionHooks(nil), r.decisions...)
	sort.Slice(out, func(i, j int) bool { return out[i].Leaf < out[j].Leaf })
	return out
}

// PathRows returns the non-empty path load matrix cells across every leaf,
// in (leaf, uplink, dstLeaf) order.
func (r *Registry) PathRows() []PathRow {
	if r == nil {
		return nil
	}
	var rows []PathRow
	for _, h := range r.DecisionHooksAll() {
		for up := 0; up < h.uplinks; up++ {
			for dst := 0; dst < h.leaves; dst++ {
				i := up*h.leaves + dst
				if h.flowlets[i] == 0 && h.bytes[i] == 0 {
					continue
				}
				rows = append(rows, PathRow{Leaf: h.Leaf, Uplink: up,
					DstLeaf: dst, Flowlets: h.flowlets[i], Bytes: h.bytes[i]})
			}
		}
	}
	return rows
}

// PathSummaries returns one balance summary per leaf with any recorded
// path activity, sorted by leaf.
func (r *Registry) PathSummaries() []PathSummary {
	if r == nil {
		return nil
	}
	var out []PathSummary
	for _, h := range r.DecisionHooksAll() {
		s := PathSummary{Leaf: h.Leaf}
		perUp := make([]uint64, h.uplinks)
		for up := 0; up < h.uplinks; up++ {
			for dst := 0; dst < h.leaves; dst++ {
				i := up*h.leaves + dst
				s.Flowlets += h.flowlets[i]
				s.Bytes += h.bytes[i]
				perUp[up] += h.bytes[i]
			}
		}
		if s.Flowlets == 0 && s.Bytes == 0 {
			continue
		}
		s.Imbalance, s.Entropy = balance(perUp)
		out = append(out, s)
	}
	return out
}

// balance computes max/mean imbalance and normalized Shannon entropy over
// per-uplink byte totals.
func balance(perUp []uint64) (imbalance, entropy float64) {
	var total, max uint64
	for _, b := range perUp {
		total += b
		if b > max {
			max = b
		}
	}
	if total == 0 || len(perUp) == 0 {
		return 0, 0
	}
	mean := float64(total) / float64(len(perUp))
	imbalance = float64(max) / mean
	if len(perUp) == 1 {
		return imbalance, 1
	}
	for _, b := range perUp {
		if b == 0 {
			continue
		}
		p := float64(b) / float64(total)
		entropy -= p * math.Log2(p)
	}
	entropy /= math.Log2(float64(len(perUp)))
	return imbalance, entropy
}

// PathMatrix arranges path rows into a dense labeled matrix for rendering
// (plot.Heatmap): one matrix row per (source leaf, uplink) pair with any
// activity, one column per destination leaf, cell values in bytes — or
// flowlet counts when no byte accounting was recorded (unit reports
// which). Rows must be in PathRows order.
func PathMatrix(rows []PathRow) (rowLabels, colLabels []string, values [][]float64, unit string) {
	if len(rows) == 0 {
		return nil, nil, nil, ""
	}
	var totalBytes uint64
	dstSet := map[int]bool{}
	for _, r := range rows {
		totalBytes += r.Bytes
		dstSet[r.DstLeaf] = true
	}
	dsts := make([]int, 0, len(dstSet))
	for d := range dstSet {
		dsts = append(dsts, d)
	}
	sort.Ints(dsts)
	dstCol := make(map[int]int, len(dsts))
	for c, d := range dsts {
		dstCol[d] = c
		colLabels = append(colLabels, fmt.Sprintf("→l%d", d))
	}
	unit = "bytes"
	if totalBytes == 0 {
		unit = "flowlets"
	}
	curLeaf, curUp := -1, -1
	for _, r := range rows {
		if r.Leaf != curLeaf || r.Uplink != curUp {
			curLeaf, curUp = r.Leaf, r.Uplink
			rowLabels = append(rowLabels, fmt.Sprintf("l%d up%d", r.Leaf, r.Uplink))
			values = append(values, make([]float64, len(dsts)))
		}
		v := float64(r.Bytes)
		if totalBytes == 0 {
			v = float64(r.Flowlets)
		}
		values[len(values)-1][dstCol[r.DstLeaf]] = v
	}
	return rowLabels, colLabels, values, unit
}

// DecisionTotals sums the per-leaf reason counters.
type DecisionTotals struct {
	Sticky, NewFlowlet, Expired, Evicted, Cold uint64
}

// DecisionTotals sums reason counters across every leaf's hooks.
func (r *Registry) DecisionTotals() DecisionTotals {
	var t DecisionTotals
	if r == nil {
		return t
	}
	for _, h := range r.decisions {
		t.Sticky += h.Sticky
		t.NewFlowlet += h.NewFlowlet
		t.Expired += h.Expired
		t.Evicted += h.Evicted
		t.Cold += h.Cold
	}
	return t
}
