package telemetry

import (
	"cmp"
	"fmt"
	"slices"
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
	captureModeNames = []string{"head", "tail"}
	triggerNames     = []string{"none", "first-drop", "first-rto"}
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
)

// String returns the mode name used in flushed trace headers.
func (m CaptureMode) String() string { return nameOf(captureModeNames, m) }

// ParseCaptureMode parses "head" (or "") or "tail", the values of the CLI
// -trace-mode flag and of String.
func ParseCaptureMode(s string) (CaptureMode, error) {
	return valueOf[CaptureMode](captureModeNames, cmp.Or(s, "head"))
}

// Trigger is the condition that freezes the trace, flight-recorder style:
// once it fires the buffer stops evolving, so it holds the events leading
// up to the condition. The zero Trigger never fires.
type Trigger uint8

const (
	// TriggerFirstDrop freezes the trace when the first TraceDrop event is
	// recorded (detected inside Record, before the flow test, so a
	// one-flow trace still stops on any drop in the fabric).
	TriggerFirstDrop Trigger = iota + 1
	// TriggerFirstRTO freezes the trace when the first TCP retransmission
	// timeout fires anywhere on the engine (via PacketTrace.TriggerRTO,
	// called from the sender's timeout path).
	TriggerFirstRTO
)

// String returns the trigger name ("none", "first-drop" or "first-rto")
// used in flushed trace headers.
func (g Trigger) String() string { return nameOf(triggerNames, g) }

// ParseTrigger parses "none" (or ""), "first-drop" or "first-rto", the
// values of the CLI -trace-trigger flag and of String.
func ParseTrigger(s string) (Trigger, error) {
	return valueOf[Trigger](triggerNames, cmp.Or(s, "none"))
}

// TraceEvent is one recorded packet event, as PacketTrace.Each hands it out
// and a trace sink file reads back.
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

// traceRecord is a retained TraceEvent in 48 bytes rather than 88: where is
// an index into the trace's name table, hosts, ports and payload take the
// int32 widths of the packet fields they come from, and the kind is a byte.
type traceRecord struct {
	t       sim.Time
	flow    uint64
	seq     int64
	src     int32
	dst     int32
	sport   int32
	dport   int32
	payload int32
	where   uint16
	kind    TraceKind
}

// narrow returns v as an N. A value that does not fit panics with the
// field's name: a retained record never holds a truncated value.
func narrow[N int32 | int16 | uint16 | uint8](field string, v int) N {
	if n := N(v); int(n) == v {
		return n
	}
	panic(fmt.Sprintf("telemetry: %s %d does not fit a %T", field, v, N(0)))
}

// capture is the bounded buffer under PacketTrace and DecisionTrace. What a
// full buffer does with the next event is its CaptureMode: head turns it
// away, tail overwrites the oldest retained event. Every event that is not
// in the retained set — turned away, evicted, or counted by the owner
// without being offered — is in Suppressed, so recorded + suppressed is the
// number of events seen.
type capture[T any] struct {
	mode   CaptureMode
	events []T
	// Suppressed counts the events seen that are not in the retained set.
	Suppressed uint64
	start      int // tail mode: ring index of the oldest retained event
	// headFull is set by the first offer a full head buffer turns away, so
	// that every later one — nearly all the offers of a long run — is a
	// counter bump inlined into the caller.
	headFull bool
}

func newCapture[T any](capacity int, mode CaptureMode) capture[T] {
	return capture[T]{mode: mode, events: make([]T, 0, capacity)}
}

// offer accounts for one event and returns the index of the slot the caller
// fills with it, or -1 when the mode does not retain it.
func (c *capture[T]) offer() int {
	if c.headFull {
		c.Suppressed++
		return -1
	}
	return c.take()
}

// take is offer for every buffer but a head buffer known to be full.
func (c *capture[T]) take() int {
	if n := len(c.events); n < cap(c.events) {
		c.events = c.events[:n+1]
		return n
	}
	// Whether the event is turned away or takes a slot, one event more is
	// outside the retained set.
	c.Suppressed++
	if c.mode == CaptureHead {
		c.headFull = true
		return -1
	}
	slot := c.start
	if c.start++; c.start == len(c.events) {
		c.start = 0
	}
	return slot
}

// each calls fn with the index of every retained slot in time order: from
// the oldest slot, which is the first for head mode and the ring's start for
// tail. No record is copied.
func (c *capture[T]) each(fn func(slot int)) {
	n := len(c.events)
	for i, j := 0, c.start; i < n; i++ {
		fn(j)
		if j++; j == n {
			j = 0
		}
	}
}

func (c *capture[T]) info() CaptureInfo {
	return CaptureInfo{
		Mode:       c.mode,
		Cap:        cap(c.events),
		Recorded:   len(c.events),
		Seen:       len(c.events) + int(c.Suppressed),
		Suppressed: c.Suppressed,
	}
}

// PacketTrace is a capture buffer of packet events: every flow's, or one
// flow's.
//
// A Trigger freezes the buffer when its condition first fires, answering
// "what happened right before the collapse" without post-processing.
// Matching events that arrive after the freeze count as suppressed.
type PacketTrace struct {
	capture[traceRecord]
	// oneFlow restricts the trace to the events of flow.
	oneFlow bool
	flow    uint64
	// names is the table traceRecord.where indexes, interned as slots are
	// taken; nameIdx finds a name's index.
	names   []string
	nameIdx map[string]uint16

	trigger Trigger
	// Triggered reports whether the trigger fired, which froze the trace;
	// TriggeredAt records when.
	Triggered   bool
	TriggeredAt sim.Time
}

// newPacketTrace returns a trace of flow's events, or of every flow's when
// flow is nil.
func newPacketTrace(capacity int, flow *uint64, mode CaptureMode, trigger Trigger) *PacketTrace {
	tr := &PacketTrace{
		capture: newCapture[traceRecord](capacity, mode),
		nameIdx: make(map[string]uint16),
		trigger: trigger,
	}
	if flow != nil {
		tr.oneFlow, tr.flow = true, *flow
	}
	return tr
}

// Record offers an event to the trace. The first-drop trigger is evaluated
// before the flow test, then the event is recorded if it matches and the
// buffer's capture mode retains it. Scalar parameters (rather than a packet
// struct) keep telemetry free of a fabric dependency. Safe on a nil
// receiver.
func (tr *PacketTrace) Record(t sim.Time, kind TraceKind, where string, flowID uint64, src, dst, sport, dport int, seq int64, payload int) {
	if tr == nil {
		return
	}
	// Read before this event can fire the trigger: the triggering drop
	// itself is the event of interest and is retained (when it is of the
	// traced flow) even by a trace that freezes on it.
	frozen := tr.Triggered
	if kind == TraceDrop && tr.trigger == TriggerFirstDrop && !frozen {
		tr.fire(t)
	}
	if tr.oneFlow && flowID != tr.flow {
		return
	}
	if frozen {
		tr.Suppressed++
		return
	}
	if i := tr.offer(); i >= 0 {
		tr.events[i] = traceRecord{
			t: t, kind: kind, where: tr.intern(where), flow: flowID,
			src: narrow[int32]("src", src), dst: narrow[int32]("dst", dst),
			sport: narrow[int32]("sport", sport), dport: narrow[int32]("dport", dport),
			seq: seq, payload: narrow[int32]("payload", payload),
		}
	}
}

// intern returns where's index in the name table, adding it when new.
func (tr *PacketTrace) intern(where string) uint16 {
	i, ok := tr.nameIdx[where]
	if !ok {
		i = narrow[uint16]("where", len(tr.names))
		tr.names = append(tr.names, where)
		tr.nameIdx[where] = i
	}
	return i
}

// TriggerRTO notifies the trace that a TCP retransmission timeout fired;
// it freezes the buffer when TriggerFirstRTO is armed. Safe on a nil
// receiver, so the sender's timeout path needs no enable check.
func (tr *PacketTrace) TriggerRTO(now sim.Time) {
	if tr == nil || tr.trigger != TriggerFirstRTO || tr.Triggered {
		return
	}
	tr.fire(now)
}

func (tr *PacketTrace) fire(now sim.Time) {
	tr.Triggered = true
	tr.TriggeredAt = now
}

// Each calls fn with every recorded event in time order. Safe on a nil
// receiver.
func (tr *PacketTrace) Each(fn func(TraceEvent)) {
	if tr == nil {
		return
	}
	tr.each(func(i int) {
		r := &tr.events[i]
		fn(TraceEvent{
			T: r.t, Kind: r.kind, Where: tr.names[r.where], FlowID: r.flow,
			Src: int(r.src), Dst: int(r.dst), SrcPort: int(r.sport), DstPort: int(r.dport),
			Seq: r.seq, Payload: int(r.payload),
		})
	})
}

// Len returns the number of recorded events.
func (tr *PacketTrace) Len() int {
	if tr == nil {
		return 0
	}
	return len(tr.events)
}

// CaptureInfo is the trace's capture policy and outcome, emitted as a
// header by the sinks and summarized by congaplot -summary.
type CaptureInfo struct {
	Mode          CaptureMode
	Cap           int
	Recorded      int
	Seen          int // matching events observed
	Suppressed    uint64
	Trigger       Trigger
	Triggered     bool
	TriggeredAt   sim.Time
	TriggerReason string // the trigger's name once it fired
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
	if tr.Triggered {
		info.TriggerReason = tr.trigger.String()
	}
	return info
}
