package telemetry

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"conga/internal/sim"
)

// TraceKind classifies a packet-trace event.
type TraceKind uint8

const (
	// TraceSend is a host handing a packet to its access link.
	TraceSend TraceKind = iota
	// TraceRecv is a host delivering a packet to its transport.
	TraceRecv
	// TraceDrop is a link discarding a packet (tail drop or link down).
	TraceDrop
)

// String returns the event name used in flushed trace files.
func (k TraceKind) String() string { return nameOf(traceKindNames, k) }

var (
	traceKindNames   = []string{"send", "recv", "drop"}
	captureModeNames = []string{"head", "tail", "reservoir"}
)

// nameOf and valueOf take an enumeration's values to the names flushed files
// and CLI flags use for them, and back.
func nameOf[T ~uint8](names []string, v T) string {
	if int(v) < len(names) {
		return names[v]
	}
	return "?"
}

func valueOf[T ~uint8](names []string, s string) (T, error) {
	if i := slices.Index(names, s); i >= 0 {
		return T(i), nil
	}
	return 0, fmt.Errorf("telemetry: unknown %T %q (want %s)", T(0), s, strings.Join(names, ", "))
}

// Filter restricts the packet trace by flow 5-tuple. Negative fields match
// anything; the zero value is normalized to match-all (flow IDs and host
// indices of 0 are never used as filter targets via a zero value — start
// from MatchAll and set a field to opt in).
type Filter struct {
	// FlowID matches Packet.FlowID when >= 0.
	FlowID int64
	// SrcHost, DstHost, SrcPort, DstPort match the corresponding packet
	// fields when >= 0.
	SrcHost, DstHost, SrcPort, DstPort int
}

// MatchAll returns the filter that keeps every event.
func MatchAll() Filter {
	return Filter{FlowID: -1, SrcHost: -1, DstHost: -1, SrcPort: -1, DstPort: -1}
}

func (f Filter) normalized() Filter {
	if f == (Filter{}) {
		return MatchAll()
	}
	return f
}

// CaptureMode selects which matching events a full PacketTrace retains.
type CaptureMode uint8

const (
	// CaptureHead keeps the first TraceCap matching events and suppresses
	// the rest: cheapest mode, right for "how does the run start".
	CaptureHead CaptureMode = iota
	// CaptureTail is the flight recorder: a ring that overwrites the
	// oldest retained event, so the trace always holds the last TraceCap
	// events before the run (or a trigger) stopped it.
	CaptureTail
	// CaptureReservoir keeps a uniform random sample of all matching
	// events (Vitter's Algorithm R) using a private deterministic PRNG,
	// for an unbiased whole-run picture at bounded memory.
	CaptureReservoir
)

// String returns the mode name used in flushed trace headers.
func (m CaptureMode) String() string { return nameOf(captureModeNames, m) }

// ParseCaptureMode parses "head" (or ""), "tail" or "reservoir" (as accepted
// by the CLI -trace-mode flags and emitted by String).
func ParseCaptureMode(s string) (CaptureMode, error) {
	if s == "" {
		return CaptureHead, nil
	}
	return valueOf[CaptureMode](captureModeNames, s)
}

// Trigger is a bitmask of conditions that freeze the trace (after an
// optional TraceStopAfter countdown), flight-recorder style: the buffer
// stops evolving so it holds the events leading up to the condition.
type Trigger uint8

const (
	// TriggerFirstDrop freezes the trace when the first TraceDrop event is
	// recorded (detected inside Record, before the filter runs, so a
	// flow-filtered trace still stops on any drop in the fabric).
	TriggerFirstDrop Trigger = 1 << iota
	// TriggerFirstRTO freezes the trace when the first TCP retransmission
	// timeout fires anywhere on the engine (via PacketTrace.TriggerRTO,
	// called from the sender's timeout path).
	TriggerFirstRTO
)

// String returns the trigger names ("first-drop", "first-rto",
// "first-drop|first-rto", or "none") used in flushed trace headers.
func (g Trigger) String() string {
	var parts []string
	if g&TriggerFirstDrop != 0 {
		parts = append(parts, "first-drop")
	}
	if g&TriggerFirstRTO != 0 {
		parts = append(parts, "first-rto")
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "|")
}

// ParseTrigger parses a trigger spec: "", "none", or a |-separated list of
// "first-drop" / "first-rto" / "drop" / "rto".
func ParseTrigger(s string) (Trigger, error) {
	var g Trigger
	if s == "" || s == "none" {
		return 0, nil
	}
	for _, part := range strings.Split(s, "|") {
		switch part {
		case "first-drop", "drop":
			g |= TriggerFirstDrop
		case "first-rto", "rto":
			g |= TriggerFirstRTO
		default:
			return 0, fmt.Errorf("telemetry: unknown trace trigger %q (want first-drop, first-rto or none)", part)
		}
	}
	return g, nil
}

// TraceEvent is one recorded packet event.
type TraceEvent struct {
	T       sim.Time
	Kind    TraceKind
	Where   string // host or link name
	FlowID  uint64
	Src     int
	Dst     int
	SrcPort int
	DstPort int
	Seq     int64
	Payload int
}

// reservoirSeed is the fixed seed for the reservoir's private PRNG. The
// stream is independent of every engine PRNG (a trace never consumes engine
// randomness), so reservoir capture cannot perturb the simulation, and a
// fixed seed keeps the retained sample reproducible across runs.
const reservoirSeed = 0x9e3779b97f4a7c15

// capture is the bounded buffer under PacketTrace and DecisionTrace. What a
// full buffer does with the next event is its CaptureMode: head turns it
// away, tail overwrites the oldest retained event, reservoir keeps a uniform
// sample. Every event that is not in the retained set — turned away, evicted,
// or counted by the owner without being offered — is in Suppressed, so
// recorded + suppressed is the number of events seen.
type capture[T any] struct {
	mode   CaptureMode
	events []T
	// Suppressed counts the events seen that are not in the retained set.
	Suppressed uint64
	start      int       // tail mode: ring index of the oldest retained event
	rng        *sim.Rand // reservoir mode: private PRNG, never the engine's
	// headFull is set by the first offer a full head buffer turns away, so
	// that every later one — nearly all the offers of a long run — is a
	// counter bump inlined into the caller.
	headFull bool
}

func newCapture[T any](capacity int, mode CaptureMode) capture[T] {
	c := capture[T]{mode: mode, events: make([]T, 0, capacity)}
	if mode == CaptureReservoir {
		c.rng = sim.NewRand(reservoirSeed)
	}
	return c
}

// offer accounts for one event and returns the slot the caller fills with
// it, or nil when the mode does not retain it. A slot being overwritten
// still holds its evictee, whose buffers the caller may reuse.
func (c *capture[T]) offer() *T {
	if c.headFull {
		c.Suppressed++
		return nil
	}
	return c.take()
}

// take is offer for every buffer but a head buffer known to be full.
func (c *capture[T]) take() *T {
	if n := len(c.events); n < cap(c.events) {
		c.events = c.events[:n+1]
		return &c.events[n]
	}
	// Whether the event is turned away or takes a slot, one event more is
	// outside the retained set.
	c.Suppressed++
	switch c.mode {
	case CaptureHead:
		c.headFull = true
	case CaptureTail:
		slot := &c.events[c.start]
		if c.start++; c.start == len(c.events) {
			c.start = 0
		}
		return slot
	case CaptureReservoir:
		// Algorithm R: the n-th event seen replaces a uniform slot with
		// probability cap/n.
		if j := c.rng.Intn(c.seen()); j < len(c.events) {
			return &c.events[j]
		}
	}
	return nil
}

func (c *capture[T]) seen() int { return len(c.events) + int(c.Suppressed) }

// ordered returns the retained events in time order; at reads an event's
// time. Head mode, and a tail ring that has not wrapped, hand out the buffer
// itself, which callers must not modify; a wrapped ring is returned as a
// rotated copy (oldest first) and a reservoir, whose replacements scramble
// slots, as a time-sorted copy with ties in slot order — deterministic for
// the fixed seed.
func (c *capture[T]) ordered(at func(*T) sim.Time) []T {
	switch {
	case c.mode == CaptureTail && c.start != 0:
		out := make([]T, 0, len(c.events))
		out = append(out, c.events[c.start:]...)
		return append(out, c.events[:c.start]...)
	case c.mode == CaptureReservoir:
		out := append([]T(nil), c.events...)
		sort.SliceStable(out, func(i, j int) bool { return at(&out[i]) < at(&out[j]) })
		return out
	}
	return c.events
}

func (c *capture[T]) info() CaptureInfo {
	return CaptureInfo{
		Mode:       c.mode,
		Cap:        cap(c.events),
		Recorded:   len(c.events),
		Seen:       c.seen(),
		Suppressed: c.Suppressed,
	}
}

// PacketTrace is a capture buffer of the packet events matched by a Filter.
//
// A Trigger freezes the buffer when its condition first fires (after
// StopAfter further matching events), answering "what happened right before
// the collapse" without post-processing. Matching events that arrive after
// the freeze count as suppressed.
type PacketTrace struct {
	capture[TraceEvent]
	filter Filter

	trigger   Trigger
	stopAfter int // matching events still let through once Triggered

	// Triggered reports whether a trigger condition fired; TriggeredAt and
	// TriggerReason record when and which ("first-drop" or "first-rto").
	Triggered     bool
	TriggeredAt   sim.Time
	TriggerReason string
}

func newPacketTrace(capacity int, f Filter, mode CaptureMode, trigger Trigger, stopAfter int) *PacketTrace {
	return &PacketTrace{
		capture:   newCapture[TraceEvent](capacity, mode),
		filter:    f,
		trigger:   trigger,
		stopAfter: max(stopAfter, 0),
	}
}

// Record offers an event to the trace. Trigger conditions are evaluated
// before the filter, then the event is recorded if it matches and the
// buffer's capture mode retains it. Scalar parameters (rather than a packet
// struct) keep telemetry free of a fabric dependency. Safe on a nil
// receiver.
func (tr *PacketTrace) Record(t sim.Time, kind TraceKind, where string, flowID uint64, src, dst, sport, dport int, seq int64, payload int) {
	if tr == nil {
		return
	}
	// Read before this event can fire the trigger: the triggering drop
	// itself is the event of interest and is retained (when it matches the
	// filter) even by a trace that freezes on it.
	frozen := tr.Frozen()
	firedNow := kind == TraceDrop && tr.trigger&TriggerFirstDrop != 0 && !tr.Triggered
	if firedNow {
		tr.fire(t, "first-drop")
	}
	if f := &tr.filter; f.FlowID >= 0 && uint64(f.FlowID) != flowID ||
		f.SrcHost >= 0 && f.SrcHost != src || f.DstHost >= 0 && f.DstHost != dst ||
		f.SrcPort >= 0 && f.SrcPort != sport || f.DstPort >= 0 && f.DstPort != dport {
		return
	}
	if frozen {
		tr.Suppressed++
		return
	}
	if ev := tr.offer(); ev != nil {
		*ev = TraceEvent{
			T: t, Kind: kind, Where: where, FlowID: flowID,
			Src: src, Dst: dst, SrcPort: sport, DstPort: dport,
			Seq: seq, Payload: payload,
		}
	}
	// The countdown runs on every matching event past the trigger, retained
	// or not; the triggering event itself does not consume it.
	if tr.Triggered && !firedNow && tr.stopAfter > 0 {
		tr.stopAfter--
	}
}

// TriggerRTO notifies the trace that a TCP retransmission timeout fired;
// it freezes the buffer when TriggerFirstRTO is armed. Safe on a nil
// receiver, so the sender's timeout path needs no enable check.
func (tr *PacketTrace) TriggerRTO(now sim.Time) {
	if tr == nil || tr.trigger&TriggerFirstRTO == 0 || tr.Triggered {
		return
	}
	tr.fire(now, "first-rto")
}

func (tr *PacketTrace) fire(now sim.Time, reason string) {
	tr.Triggered = true
	tr.TriggeredAt = now
	tr.TriggerReason = reason
}

// Frozen reports whether a trigger has stopped the trace: one fired and its
// countdown is spent.
func (tr *PacketTrace) Frozen() bool {
	return tr != nil && tr.Triggered && tr.stopAfter == 0
}

// Events returns the recorded events in time order; see capture.ordered for
// when the slice aliases the buffer.
func (tr *PacketTrace) Events() []TraceEvent {
	if tr == nil {
		return nil
	}
	return tr.ordered(func(e *TraceEvent) sim.Time { return e.T })
}

// Len returns the number of recorded events.
func (tr *PacketTrace) Len() int {
	if tr == nil {
		return 0
	}
	return len(tr.events)
}

// CaptureInfo is the trace's capture policy and outcome, emitted as a
// header by the sinks and summarized by cmd/congatrace.
type CaptureInfo struct {
	Mode          CaptureMode
	Cap           int
	Recorded      int
	Seen          int // matching events observed
	Suppressed    uint64
	Trigger       Trigger
	Triggered     bool
	TriggeredAt   sim.Time
	TriggerReason string
}

// Info returns the trace's capture policy and outcome. Safe on a nil
// receiver (zero value).
func (tr *PacketTrace) Info() CaptureInfo {
	if tr == nil {
		return CaptureInfo{}
	}
	info := tr.info()
	info.Trigger = tr.trigger
	info.Triggered = tr.Triggered
	info.TriggeredAt = tr.TriggeredAt
	info.TriggerReason = tr.TriggerReason
	return info
}
