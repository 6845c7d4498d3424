// Package telemetry is the observability subsystem for the simulator: a
// per-engine Registry of monotonic counters, fixed-capacity time-series
// probes, and an optional packet trace, flushed as NDJSON sink files after a
// run completes.
//
// Design constraints, in priority order:
//
//  1. Zero overhead when off. Hot-path objects (links, hosts, TCP senders)
//     hold a nil pointer to their hook struct; every instrumentation site is
//     a single nil check. No registry, no map lookups, no interfaces on the
//     packet path.
//  2. Observation never perturbs the simulation. Probes read state and bump
//     plain uint64 fields; they never schedule events, never consume random
//     numbers, and sinks only run after the engine has stopped. A run with
//     telemetry enabled executes the exact same event sequence — same
//     event count, same FCTs, same goodput — as one without.
//  3. Per-engine isolation. A Registry belongs to exactly one engine and is
//     not synchronized; parallel sweeps (internal/runner) give every engine
//     its own registry and never share one across goroutines.
//
// The package depends only on internal/sim and the standard library, so any
// layer (fabric, tcp, experiment harness) can hold hook structs without
// import cycles.
package telemetry

import (
	"fmt"
	"sort"
)

// Options selects which probes a Registry activates beyond the two every
// registry has: the monotonic counter hooks (per-link enqueue/dequeue/drop
// and CE marks, per-leaf flowlet create/expire/evict, engine-wide TCP
// loss-recovery counters) and the ring-buffer time-series probes (queue
// depth, DRE register, flowlet-table occupancy, congestion-table metrics).
// See All for the everything-on configuration the CLI -telemetry flag uses.
type Options struct {
	// SeriesCap bounds each series' sample count; when a buffer fills it
	// halves its resolution instead of growing (see Series). Default 4096.
	SeriesCap int
	// Trace enables the packet trace sampler.
	Trace bool
	// TraceCap bounds the number of recorded trace events (default 65536);
	// once full, further events only bump the trace's Suppressed counter.
	TraceCap int
	// TraceFlow, when non-nil, restricts the trace to the packets of the
	// flow with this ID; nil traces every flow.
	TraceFlow *uint64
	// TraceMode selects what a full trace keeps: the head of the run
	// (default) or the tail (flight recorder).
	TraceMode CaptureMode
	// TraceTrigger freezes the trace when its condition first fires (first
	// drop or first RTO); zero means never.
	TraceTrigger Trigger
	// Decisions enables the decision plane: per-leaf flowlet routing
	// reason counters, per-(uplink, dstLeaf) path load matrices, the
	// feedback-staleness series, and the audit trail of individual
	// SelectUplink outcomes in one bounded buffer that keeps what TraceMode
	// says. Like every probe, it needs one engine: the space-parallel
	// engine refuses any telemetry.
	Decisions bool
	// DecisionCap bounds the decision trace (default 65536).
	DecisionCap int
	// Dir, when non-empty, is where Flush writes one NDJSON sink file per
	// probe.
	Dir string
}

// All returns Options with every probe enabled at default capacities,
// flushing to dir ("" = keep in memory only).
func All(dir string) Options {
	return Options{Trace: true, Decisions: true, Dir: dir}
}

func (o Options) withDefaults() Options {
	if o.SeriesCap <= 0 {
		o.SeriesCap = 4096
	}
	o.SeriesCap = (o.SeriesCap + 1) &^ 1 // even, so downsampling stays aligned
	if o.TraceCap <= 0 {
		o.TraceCap = 65536
	}
	if o.DecisionCap <= 0 {
		o.DecisionCap = 65536
	}
	return o
}

// LinkCounters is the per-link hook struct. The owning link bumps the
// fields directly (Dequeues excepted); with telemetry off the link's
// pointer is nil and each site is one branch.
type LinkCounters struct {
	Name string
	// Enqueues counts packets accepted for transmission (queued or put
	// straight into service); Dequeues counts packets whose serialization
	// finished, pulled from the link's as-of-now tx count by a collector;
	// Drops counts tail drops, down-link drops and queue flushes.
	Enqueues, Dequeues, Drops uint64
	// CEMarks counts transits that raised the packet's CONGA CE field
	// (fabric links only).
	CEMarks uint64
}

// TCPCounters aggregates loss-recovery activity across every sender, and
// ACKs across every receiver, on the engine (MPTCP subflows included). One
// struct per registry: endpoints are short-lived, so per-flow pull-at-end
// would miss closed flows.
type TCPCounters struct {
	// Retransmits counts retransmitted segments (fast recovery and RTO).
	Retransmits uint64
	// Timeouts counts RTO firings; FastRetx counts fast-recovery entries.
	Timeouts, FastRetx uint64
	// DupAcks counts duplicate ACKs seen by senders.
	DupAcks uint64
	// ReorderDefers counts dupACK thresholds that were deferred by the
	// RACK-style reordering window instead of triggering recovery.
	ReorderDefers uint64
	// Acks counts ACKs receivers sent; DelayedAcks how many of those the
	// delayed-ACK timer sent.
	Acks, DelayedAcks uint64
}

// FlowletRow is the per-leaf flowlet-table counter snapshot, pulled from
// the table's own monotonic counters by a registered collector.
type FlowletRow struct {
	Leaf int
	// Creates counts flowlet installs, Expires gap-detector invalidations,
	// and Evicts installs that overwrote a still-live entry (hash
	// collision or immediate reuse).
	Creates, Expires, Evicts uint64
}

// CounterRow is one flushed counter value.
type CounterRow struct {
	Group   string // "link", "tcp", "flowlet"
	Name    string // link name, "" for tcp, "leafN" for flowlet rows
	Counter string
	Value   uint64
}

// Registry is the per-engine telemetry root: it owns the counter hook
// structs, the series buffers and the trace, and knows how to flush them.
// A nil *Registry is valid and means "telemetry off" everywhere.
type Registry struct {
	opts Options

	links   []*LinkCounters
	linkIdx map[string]*LinkCounters
	tcp     TCPCounters

	flowlets []FlowletRow
	engine   []CounterRow

	series  []*Series
	byName  map[string]*Series
	trace   *PacketTrace
	collect []func()

	// decisions holds one hook struct per leaf (created lazily by
	// Decisions); decTrace is the shared bounded audit buffer.
	decisions []*DecisionHooks
	decTrace  *DecisionTrace

	// provenance, when set, names the workload that drove the run (e.g. a
	// replay trace's identity); sinks stamp it into their headers.
	provenance string
}

// New returns a registry for the given options. It never returns nil (use a
// nil *Registry for "off"); options select which accessors hand out live
// hooks.
func New(opts Options) *Registry {
	opts = opts.withDefaults()
	r := &Registry{
		opts:    opts,
		linkIdx: make(map[string]*LinkCounters),
		byName:  make(map[string]*Series),
	}
	if opts.Trace {
		r.trace = newPacketTrace(opts.TraceCap, opts.TraceFlow, opts.TraceMode, opts.TraceTrigger)
	}
	if opts.Decisions {
		r.decTrace = newDecisionTrace(opts.DecisionCap, opts.TraceMode)
	}
	return r
}

// Link returns the counter hooks for the named link, creating them on first
// use. It returns nil — and allocates nothing — when the registry itself is
// nil, so callers can wire unconditionally.
func (r *Registry) Link(name string) *LinkCounters {
	if r == nil {
		return nil
	}
	if c, ok := r.linkIdx[name]; ok {
		return c
	}
	c := &LinkCounters{Name: name}
	r.linkIdx[name] = c
	r.links = append(r.links, c)
	return c
}

// TCP returns the registry's TCP counter block, which every host of the
// run bumps, or nil on a nil registry.
func (r *Registry) TCP() *TCPCounters {
	if r == nil {
		return nil
	}
	return &r.tcp
}

// Trace returns the packet trace, or nil when tracing is disabled.
func (r *Registry) Trace() *PacketTrace {
	if r == nil {
		return nil
	}
	return r.trace
}

// NewSeries registers a time-series probe on a clock of its own (a group
// of one, driven through Series.Observe) and returns its buffer, or nil on
// a nil registry. Registering the same name twice returns the same buffer.
func (r *Registry) NewSeries(name, unit string) *Series {
	if r == nil {
		return nil
	}
	if s, ok := r.byName[name]; ok {
		return s
	}
	return r.NewSeriesGroup().add(name, unit)
}

// AllSeries returns every registered series in registration order.
func (r *Registry) AllSeries() []*Series {
	if r == nil {
		return nil
	}
	return r.series
}

// AddCollector registers a function Collect runs to pull counters that live
// on model objects (e.g. flowlet tables) into the registry. Collectors must
// be idempotent: they overwrite rather than accumulate.
func (r *Registry) AddCollector(fn func()) {
	if r == nil {
		return
	}
	r.collect = append(r.collect, fn)
}

// Collect runs the registered collectors. The experiment harness calls it
// once after the engine stops, before reading totals or flushing.
func (r *Registry) Collect() {
	if r == nil {
		return
	}
	for _, fn := range r.collect {
		fn()
	}
}

// RecordFlowlets stores (overwriting any previous row for the leaf) the
// flowlet counter snapshot collectors pull from a leaf's table.
func (r *Registry) RecordFlowlets(leaf int, creates, expires, evicts uint64) {
	if r == nil {
		return
	}
	for i := range r.flowlets {
		if r.flowlets[i].Leaf == leaf {
			r.flowlets[i] = FlowletRow{Leaf: leaf, Creates: creates, Expires: expires, Evicts: evicts}
			return
		}
	}
	r.flowlets = append(r.flowlets, FlowletRow{Leaf: leaf, Creates: creates, Expires: expires, Evicts: evicts})
}

// RecordEngine stores (overwriting any previous value) one counter of the
// "engine" group, which describes the simulator — how it executed the run —
// rather than the simulated network. The group is read through EngineRows
// and is not part of CounterRows, so the files a flush writes stay what
// TestSinkFilesGolden pins.
func (r *Registry) RecordEngine(counter string, v uint64) {
	if r == nil {
		return
	}
	for i := range r.engine {
		if r.engine[i].Counter == counter {
			r.engine[i].Value = v
			return
		}
	}
	r.engine = append(r.engine, CounterRow{Group: "engine", Counter: counter, Value: v})
}

// EngineRows returns the engine group in recording order (valid after
// Collect).
func (r *Registry) EngineRows() []CounterRow {
	if r == nil {
		return nil
	}
	return r.engine
}

// CounterRows returns every counter as flat rows in deterministic order:
// links in registration order, then TCP, then flowlet rows by leaf.
func (r *Registry) CounterRows() []CounterRow {
	if r == nil {
		return nil
	}
	rows := make([]CounterRow, 0, 4*len(r.links)+7+3*len(r.flowlets))
	for _, l := range r.links {
		rows = append(rows,
			CounterRow{"link", l.Name, "enqueues", l.Enqueues},
			CounterRow{"link", l.Name, "dequeues", l.Dequeues},
			CounterRow{"link", l.Name, "drops", l.Drops},
			CounterRow{"link", l.Name, "ce_marks", l.CEMarks},
		)
	}
	tcp := r.TCPTotals()
	rows = append(rows,
		CounterRow{"tcp", "", "retransmits", tcp.Retransmits},
		CounterRow{"tcp", "", "timeouts", tcp.Timeouts},
		CounterRow{"tcp", "", "fast_retx", tcp.FastRetx},
		CounterRow{"tcp", "", "dup_acks", tcp.DupAcks},
		CounterRow{"tcp", "", "reorder_defers", tcp.ReorderDefers},
		CounterRow{"tcp", "", "acks", tcp.Acks},
		CounterRow{"tcp", "", "delayed_acks", tcp.DelayedAcks},
	)
	fl := append([]FlowletRow(nil), r.flowlets...)
	sort.Slice(fl, func(i, j int) bool { return fl[i].Leaf < fl[j].Leaf })
	for _, f := range fl {
		name := fmt.Sprintf("leaf%d", f.Leaf)
		rows = append(rows,
			CounterRow{"flowlet", name, "creates", f.Creates},
			CounterRow{"flowlet", name, "expires", f.Expires},
			CounterRow{"flowlet", name, "evicts", f.Evicts},
		)
	}
	for _, h := range r.DecisionHooksAll() {
		name := fmt.Sprintf("leaf%d", h.Leaf)
		rows = append(rows,
			CounterRow{"decision", name, "sticky", h.Sticky},
			CounterRow{"decision", name, "new_flowlet", h.NewFlowlet},
			CounterRow{"decision", name, "expired", h.Expired},
			CounterRow{"decision", name, "evicted", h.Evicted},
			CounterRow{"decision", name, "cold", h.Cold},
		)
	}
	return rows
}

// LinkTotals sums the per-link counters.
func (r *Registry) LinkTotals() (enq, deq, drops, ceMarks uint64) {
	if r == nil {
		return
	}
	for _, l := range r.links {
		enq += l.Enqueues
		deq += l.Dequeues
		drops += l.Drops
		ceMarks += l.CEMarks
	}
	return
}

// TCPTotals returns the run's TCP counters.
func (r *Registry) TCPTotals() TCPCounters {
	if r == nil {
		return TCPCounters{}
	}
	return r.tcp
}

// FlowletTotals sums the per-leaf flowlet rows (valid after Collect).
func (r *Registry) FlowletTotals() (creates, expires, evicts uint64) {
	if r == nil {
		return
	}
	for _, f := range r.flowlets {
		creates += f.Creates
		expires += f.Expires
		evicts += f.Evicts
	}
	return
}

// Flush runs Collect and writes every probe's sink file to Options.Dir. A
// registry with no Dir set flushes nowhere and returns nil; so does a nil
// registry.
func (r *Registry) Flush() error {
	if r == nil || r.opts.Dir == "" {
		return nil
	}
	return r.FlushTo(r.opts.Dir)
}

// FlushTo runs Collect and writes every probe into dir (created if needed)
// as one NDJSON sink file per probe. Every file but the series opens with
// the provenance line, when one is set.
func (r *Registry) FlushTo(dir string) error {
	if r == nil {
		return nil
	}
	r.Collect()
	for _, f := range r.sinkFiles() {
		if err := f.Write(dir); err != nil {
			return err
		}
	}
	return nil
}

// sinkFiles returns the files a flush writes, in flush order. Series and
// traces stream their rows from the probes' own buffers (see SinkFile.fill).
func (r *Registry) sinkFiles() []*SinkFile {
	files := []*SinkFile{{Table: CounterTable, Provenance: r.provenance, Counters: r.CounterRows()}}
	for _, s := range r.series {
		f := &SinkFile{Table: SeriesTable, Probe: s.name, Unit: s.unit, Points: make([]Point, 1)}
		f.fill = func(emit func()) { s.each(func(p Point) { f.Points[0] = p; emit() }) }
		files = append(files, f)
	}
	if tr := r.trace; tr != nil {
		info := tr.Info()
		f := &SinkFile{Table: TraceTable, Provenance: r.provenance, Capture: &info, Trace: make([]TraceEvent, 1)}
		f.fill = func(emit func()) { tr.Each(func(e TraceEvent) { f.Trace[0] = e; emit() }) }
		files = append(files, f)
	}
	if tr := r.decTrace; tr != nil {
		info := tr.Info()
		f := &SinkFile{Table: DecisionTable, Provenance: r.provenance, Capture: &info, Decisions: make([]DecisionEvent, 1)}
		f.fill = func(emit func()) { tr.Each(func(e DecisionEvent) { f.Decisions[0] = e; emit() }) }
		files = append(files, f)
	}
	if len(r.decisions) > 0 {
		files = append(files, &SinkFile{Table: PathTable, Provenance: r.provenance, Summaries: r.PathSummaries(), Paths: r.PathRows()})
	}
	return files
}

// SetProvenance records a one-line ancestry string for the run's data —
// typically the identity of the replay trace that drove it — which FlushTo
// stamps into every file but the series. Safe on nil.
func (r *Registry) SetProvenance(s string) {
	if r == nil {
		return
	}
	r.provenance = s
}
