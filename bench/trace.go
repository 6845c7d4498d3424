package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one traced interval: a call from bench code into a layer, or a
// phase of the harness that groups such calls.
type span struct {
	ID       int                `json:"id"`
	Parent   int                `json:"parent"` // 0 = root
	Workload string             `json:"workload"`
	Name     string             `json:"name"`
	StartNs  int64              `json:"start_ns"` // since the tracer was created
	EndNs    int64              `json:"end_ns"`
	SelfNs   int64              `json:"self_ns"` // duration minus the part child spans cover
	Counts   map[string]float64 `json:"counts,omitempty"`
}

// tracer records spans from bench code around each call into a layer. A nil
// tracer records nothing, so the untraced timed passes run the same code
// with every trace call a nil check. Spans stay in memory until write.
//
// Nesting follows a per-goroutine-free rule that is enough for this
// harness: begin makes the new span a child of the innermost open *phase*
// span (opened with beginPhase on the main goroutine); leaf spans opened by
// concurrent runner workers therefore share the pass span as parent.
type tracer struct {
	mu       sync.Mutex
	t0       time.Time
	workload string
	spans    []*span
	phases   []int // stack of open phase span IDs
}

func newTracer(workload string) *tracer {
	return &tracer{t0: time.Now(), workload: workload}
}

func (t *tracer) open(name string, phase bool) *span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &span{ID: len(t.spans) + 1, Workload: t.workload, Name: name, StartNs: time.Since(t.t0).Nanoseconds()}
	if n := len(t.phases); n > 0 {
		s.Parent = t.phases[n-1]
	}
	t.spans = append(t.spans, s)
	if phase {
		t.phases = append(t.phases, s.ID)
	}
	return s
}

// begin opens a leaf span around one call into a layer.
func (t *tracer) begin(name string) *span { return t.open(name, false) }

// beginPhase opens a span that later spans nest under until endPhase.
func (t *tracer) beginPhase(name string) *span { return t.open(name, true) }

func (t *tracer) end(s *span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	s.EndNs = time.Since(t.t0).Nanoseconds()
	t.mu.Unlock()
}

func (t *tracer) endPhase(s *span) {
	if t == nil {
		return
	}
	t.end(s)
	t.mu.Lock()
	t.phases = t.phases[:len(t.phases)-1]
	t.mu.Unlock()
}

// count attaches a count to a span, at the boundary where the work happened.
func (t *tracer) count(s *span, key string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if s.Counts == nil {
		s.Counts = map[string]float64{}
	}
	s.Counts[key] += v
	t.mu.Unlock()
}

// finish computes self times: a span's duration minus the union of the
// intervals its children cover (children of a sweep overlap in wall time).
func (t *tracer) finish() []*span {
	if t == nil {
		return nil
	}
	children := map[int][]*span{}
	for _, s := range t.spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	for _, s := range t.spans {
		covered, edge := int64(0), s.StartNs
		for _, c := range children[s.ID] { // already in start order
			lo, hi := c.StartNs, c.EndNs
			if lo < edge {
				lo = edge
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		s.SelfNs = s.EndNs - s.StartNs - covered
	}
	return t.spans
}

// write stores the spans as one JSON file when the run ends.
func (t *tracer) write(path string, m manifest) error {
	data, err := json.MarshalIndent(struct {
		Manifest manifest `json:"manifest"`
		Spans    []*span  `json:"spans"`
	}{m, t.finish()}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
