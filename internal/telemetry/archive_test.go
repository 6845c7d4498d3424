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

// TestHubArchiveServesFlushedFiles: a flushed run archived on the hub
// links its sink files from the dashboard's run table, and they are served
// read-only under /files/<run>/<file> — and only the files recorded at
// registration time, so the endpoint cannot be walked out of the
// directory or into files created later.
func TestHubArchiveServesFlushedFiles(t *testing.T) {
	hub := NewHub()
	dir := t.TempDir()
	opts := All(dir)
	opts.Hub = hub
	opts.RunName = "fct"
	r := New(opts)
	r.Link("l0->s0.0").Enqueues = 2
	h := r.Decisions(0, 2, 2)
	h.Decision(5, 1, 1, ReasonNewFlowlet, 10, []uint8{1, 2})
	h.AddBytes(1, 1, 100)
	r.Collect()
	r.FinishTap(5)
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	r.ArchiveToHub()

	// A file created after registration must not be served.
	if err := os.WriteFile(filepath.Join(dir, "later.txt"), []byte("no"), 0o644); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(hub.Handler())
	defer srv.Close()

	get := func(path, accept string) (int, string) {
		t.Helper()
		req, _ := http.NewRequest("GET", srv.URL+path, nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/files/fct/decisions.ndjson", ""); code != 200 ||
		!strings.Contains(body, `{"time_ns":5,"src_leaf":0,"dst_leaf":1,"uplink":1,`) {
		t.Fatalf("decisions.ndjson: %d\n%.200s", code, body)
	}
	if code, body := get("/files/fct/paths.ndjson", ""); code != 200 ||
		!strings.Contains(body, `{"leaf":0,"uplink":1,"dst_leaf":1,"flowlets":1,"bytes":100}`) {
		t.Fatalf("paths.ndjson: %d\n%.200s", code, body)
	}
	for _, path := range []string{
		"/files/fct/later.txt",          // not in the frozen listing
		"/files/fct/../archive_test.go", // traversal
		"/files/nope/counters.ndjson",   // unknown run
		"/files/fct/",                   // no file
	} {
		if code, _ := get(path, ""); code == 200 {
			t.Errorf("%s should not be served", path)
		}
	}

	// The dashboard links the archived files.
	if _, body := get("/", "text/html"); !strings.Contains(body, "flushed telemetry") ||
		!strings.Contains(body, "/files/fct/decisions.ndjson") {
		t.Errorf("dashboard missing archive table:\n%.400s", body)
	}

	// The JSON overview lists them under the run too.
	_, before := get("/", "")
	if !strings.Contains(before, `"files":["counters.ndjson",`) {
		t.Errorf("overview missing the archived files:\n%.400s", before)
	}

	// Re-archiving the same run relists its directory, not duplicates it.
	r.ArchiveToHub()
	if _, after := get("/", ""); strings.Count(after, `"counters.ndjson"`) != 1 || len(hub.Runs()) != 1 {
		t.Fatalf("re-archiving duplicated the run:\n%s", after)
	}
}
