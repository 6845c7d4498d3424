package telemetry

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestIndexContentNegotiation: "/" stays JSON for API clients (curl,
// congaplot) and becomes the HTML dashboard only when the client prefers
// text/html.
func TestIndexContentNegotiation(t *testing.T) {
	hub := NewHub()
	r := tapRegistry(hub, "demo")
	r.Link("l0->s0.0").Enqueues = 3
	r.SetProgress(func() Progress { return Progress{FlowsGenerated: 2, FlowsCompleted: 1, Events: 42} })
	s := r.NewSeries("queue.l0->s0.0", "bytes")
	s.Observe(10, 1500)
	s.Observe(20, 2900)
	r.Collect()
	r.FinishTap(20)

	srv := httptest.NewServer(hub.Handler())
	defer srv.Close()

	get := func(accept string) (string, string) {
		t.Helper()
		req, _ := http.NewRequest("GET", srv.URL+"/", nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.Header.Get("Content-Type"), string(body)
	}

	// Default and explicit */* stay JSON: each run's headline is its name
	// and its latest snapshot's header, no rate derived from two of them.
	for _, accept := range []string{"", "*/*", "application/json"} {
		ct, body := get(accept)
		if !strings.HasPrefix(ct, "application/json") || !strings.Contains(body,
			`"progress":{"flows_generated":2,"flows_completed":1,"events":42}`) || strings.Contains(body, "per_sec") {
			t.Fatalf("Accept=%q: got %s: %.300s", accept, ct, body)
		}
	}

	// A browser Accept header gets the dashboard: HTML with the run name,
	// an inline SVG chart of the series, and the counter rows.
	ct, body := get("text/html,application/xhtml+xml,*/*;q=0.8")
	if !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("browser Accept: content type %s", ct)
	}
	for _, want := range []string{"<svg", "demo", "queue.l0-&gt;s0.0", "enqueues"} {
		if !strings.Contains(body, want) {
			t.Errorf("dashboard missing %q:\n%.400s", want, body)
		}
	}
	// The run is done, so the page must not keep reloading.
	if strings.Contains(body, "location.reload") {
		t.Error("finished dashboard still auto-refreshes")
	}

	// ?run= selects a run; an unknown one renders (with the run table) but
	// chartless rather than 404ing a browser.
	req, _ := http.NewRequest("GET", srv.URL+"/?run=demo", nil)
	req.Header.Set("Accept", "text/html")
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body2, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body2), "<svg") {
		t.Fatalf("?run=demo dashboard: %s", resp.Status)
	}
}

// TestProvenanceInSinks: a registry stamped with replay provenance carries
// it into the counters and trace files as a leading meta object, while
// series files stay clean data rows.
func TestProvenanceInSinks(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "out")
	r := New(All(out))
	r.SetProvenance("replay harness=fct scheme=conga workload=enterprise load=0.5 seed=7 flows=42 fp=0123456789abcdef")
	r.Link("l0->s0.0").Enqueues = 1
	s := r.NewSeries("queue.l0->s0.0", "bytes")
	s.Observe(10, 1.5)
	r.Trace().Record(5, TraceSend, "h0", 1, 0, 1, 100, 200, 0, 1460)
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}

	read := func(name string) string {
		b, err := os.ReadFile(filepath.Join(out, name))
		if err != nil {
			t.Fatalf("read %s: %v", name, err)
		}
		return string(b)
	}
	for _, name := range []string{"counters.ndjson", "trace.ndjson"} {
		if got := read(name); !strings.HasPrefix(got, `{"provenance":"replay harness=fct`) {
			t.Errorf("%s lacks provenance meta line:\n%.120s", name, got)
		}
	}
	if got := read("series_queue.l0-s0.0.ndjson"); strings.Contains(got, "provenance") {
		t.Errorf("series file polluted with provenance:\n%.120s", got)
	}

	// Unstamped registries emit exactly the old format.
	r2 := New(All(filepath.Join(dir, "out2")))
	r2.Link("a").Enqueues = 1
	if err := r2.Flush(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "out2", "counters.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(b), `{"group":`) {
		t.Errorf("unstamped counters.ndjson changed:\n%.120s", b)
	}

	// nil-safety: stamping a nil registry is a no-op, not a panic.
	var nilReg *Registry
	nilReg.SetProvenance("x")
}
