package telemetry

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"time"
)

// Hub collects the runs of one HTTP server. Registries attach their taps at
// New time (Options.Hub), from sweep workers too, so the run list is
// mutex-protected; reading a tap stays lock-free.
type Hub struct {
	mu   sync.Mutex
	runs []*hubRun // attach order
}

// hubRun is one attached run: its tap and, once flushed, its telemetry
// directory with the files listed there then — the only ones /files/
// serves. With its latest snapshot's header it is the run's JSON headline.
type hubRun struct {
	Name string `json:"name"`
	*Snapshot
	Dir   string   `json:"dir,omitempty"`
	Files []string `json:"files,omitempty"`
	tap   *Tap
}

// NewHub returns an empty hub.
func NewHub() *Hub { return &Hub{} }

// run returns the named run — for "", the first — or nil; h.mu is held.
func (h *Hub) run(name string) *hubRun {
	for _, hr := range h.runs {
		if name == "" || hr.Name == name {
			return hr
		}
	}
	return nil
}

// attach registers a tap under name ("" = "run-N") and returns the name.
// Re-attaching a name replaces its tap (congabench reuses tags).
func (h *Hub) attach(name string, tap *Tap) string {
	h.mu.Lock()
	defer h.mu.Unlock()
	name = cmp.Or(name, fmt.Sprintf("run-%d", len(h.runs)+1))
	if hr := h.run(name); hr != nil {
		hr.tap = tap
	} else {
		h.runs = append(h.runs, &hubRun{Name: name, tap: tap})
	}
	return name
}

// archive records the named run's flushed directory and its plain files.
func (h *Hub) archive(name, dir string) {
	entries, err := os.ReadDir(dir) // sorted by name
	var files []string
	for _, e := range entries {
		if e.Type().IsRegular() {
			files = append(files, e.Name())
		}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if hr := h.run(name); hr != nil && err == nil {
		hr.Dir, hr.Files = dir, files
	}
}

// Runs returns the attached run names in attach order.
func (h *Hub) Runs() (names []string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, hr := range h.runs {
		names = append(names, hr.Name)
	}
	return names
}

// Run returns the named run's tap — for "", the first run's — or nil.
func (h *Hub) Run(name string) *Tap {
	h.mu.Lock()
	defer h.mu.Unlock()
	if hr := h.run(name); hr != nil {
		return hr.tap
	}
	return nil
}

// overview is every run's headline; done reports that at least one run is
// attached and every run is done.
func (h *Hub) overview() (runs []hubRun, done bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	runs = make([]hubRun, 0, len(h.runs)) // "runs": [] in JSON, not null
	for _, hr := range h.runs {
		runs = append(runs, *hr)
		runs[len(runs)-1].Snapshot = hr.tap.Load()
	}
	return runs, len(runs) > 0 && !slices.ContainsFunc(runs, func(r hubRun) bool { return r.Snapshot == nil || !r.Done })
}

// Handler returns the hub's HTTP handler. ?run=R picks a run (default: the
// first). Every body but the overview's is sink-file text: /counters, /paths
// and /series/NAME are byte for byte the .ndjson file a flush at the same
// safe point would write, and DecodeSink reads them.
//
//	GET /                  run overview (JSON; an Accept header preferring
//	                       text/html gets the dashboard)
//	GET /counters?run=R    the counters file
//	GET /paths?run=R       the path load matrix file (with Decisions)
//	GET /series?run=R      the series names, one per line
//	GET /series/NAME?run=R one series' file (NAME raw or as in its file name)
//	GET /stream?run=R      SSE: each snapshot and its files' new rows
//	GET /files/RUN/FILE    a flushed sink file of a finished run
func (h *Hub) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", h.handleIndex)
	for _, path := range []string{"/counters", "/paths", "/series", "/series/"} {
		mux.HandleFunc(path, h.handleFile)
	}
	mux.HandleFunc("/stream", h.handleStream)
	mux.HandleFunc("/files/", h.handleFiles)
	return mux
}

// handleIndex serves the overview: JSON, or to a client that prefers
// text/html (a browser; curl and congaplot send */*) the dashboard.
func (h *Hub) handleIndex(w http.ResponseWriter, r *http.Request) {
	runs, done := h.overview()
	switch {
	case r.URL.Path != "/":
		http.NotFound(w, r)
	case strings.Contains(r.Header.Get("Accept"), "text/html"):
		h.dashboard(w, r.URL.Query().Get("run"), runs, done)
	default:
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string][]hubRun{"runs": runs})
	}
}

// tapFor resolves ?run= to a run's name and tap; on failure it writes a 404
// naming the known runs and returns a nil tap.
func (h *Hub) tapFor(w http.ResponseWriter, r *http.Request) (string, *Tap) {
	name := r.URL.Query().Get("run")
	if tap := h.Run(name); tap != nil {
		return cmp.Or(name, h.Runs()[0]), tap // runs only grow: a tap means a first run
	}
	http.Error(w, fmt.Sprintf("unknown run %q (runs: %s)", name, strings.Join(h.Runs(), ", ")), http.StatusNotFound)
	return "", nil
}

// handleFile serves /counters, /paths and /series/NAME as their files in
// the run's latest snapshot, and /series as the list of series names.
func (h *Hub) handleFile(w http.ResponseWriter, r *http.Request) {
	_, tap := h.tapFor(w, r)
	s := tap.Load()
	if s == nil {
		if tap != nil {
			http.Error(w, "no snapshot published yet", http.StatusServiceUnavailable)
		}
		return
	}
	table, probe, _ := strings.Cut(r.URL.Path[1:], "/")
	var names []string
	for _, f := range s.Files {
		if f.Table.Name == table && (f.Probe == probe || sanitizeName(f.Probe) == probe) {
			w.Header().Set("Content-Type", "application/x-ndjson")
			_ = f.encode(w, true)
			return
		}
		if f.Table == SeriesTable {
			names = append(names, f.Probe+"\n")
		}
	}
	if r.URL.Path != "/series" {
		http.Error(w, "no such file in this run: "+r.URL.Path, http.StatusNotFound)
		return
	}
	slices.Sort(names)
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = io.WriteString(w, strings.Join(names, ""))
}

// handleFiles serves /files/RUN/FILE when the run's archive listed FILE (so
// no path traversal: the name must match a listed one exactly).
func (h *Hub) handleFiles(w http.ResponseWriter, r *http.Request) {
	name, file, _ := strings.Cut(strings.TrimPrefix(r.URL.Path, "/files/"), "/")
	path := ""
	h.mu.Lock()
	if hr := h.run(name); name != "" && hr != nil && slices.Contains(hr.Files, file) {
		path = filepath.Join(hr.Dir, file)
	}
	h.mu.Unlock()
	if path == "" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8") // shown, not downloaded
	http.ServeFile(w, r, path)
}

// handleStream serves one run as server-sent events until it is done: per
// new snapshot an "event: snapshot" headline, then an event per file that
// changed for this reader, its data lines the file's NDJSON lines — counters
// or paths whole, under the table's name; a series' rows past those this
// reader was sent ("series"), or after a compaction all ("series-reset").
// DecodeSink on each event's data, appending on "series" and replacing
// otherwise, keeps a reader's files equal to the snapshot's.
func (h *Hub) handleStream(w http.ResponseWriter, r *http.Request) {
	name, tap := h.tapFor(w, r)
	if tap == nil {
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	ticker := time.NewTicker(200 * time.Millisecond) // how often to check the tap
	defer ticker.Stop()
	sent := map[string]*SinkFile{}
	for seq := uint64(0); ; {
		s := tap.Load()
		if s != nil && s.Seq != seq {
			seq = s.Seq
			b, _ := json.Marshal(hubRun{Name: name, Snapshot: s})
			sseEvent(w, "snapshot", b)
			for _, f := range s.Files {
				streamFile(w, sent, f)
			}
		}
		if http.NewResponseController(w).Flush() != nil || s != nil && s.Done {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-ticker.C:
		}
	}
}

// streamFile writes the event, if any, that brings this reader's copy of f
// — the one in sent — up to date.
func streamFile(w io.Writer, sent map[string]*SinkFile, f *SinkFile) {
	key := f.Table.Name + "_" + f.Probe
	prev, event, out := sent[key], f.Table.Name, f
	sent[key] = f
	n := 0
	if prev != nil {
		n = len(prev.Points)
	}
	switch {
	case f.Table != SeriesTable:
		if reflect.DeepEqual(prev, f) {
			return
		}
	// Points only ever append or, in a compaction, keep every other one,
	// so the last row sent is still in place exactly when all of them are.
	case n <= len(f.Points) && (n == 0 || prev.Points[n-1] == f.Points[n-1]):
		out = &SinkFile{Table: SeriesTable, Probe: f.Probe, Unit: f.Unit, Points: f.Points[n:]}
	default:
		event = "series-reset"
	}
	var b bytes.Buffer
	if _ = out.encode(&b, true); b.Len() > 0 {
		sseEvent(w, event, b.Bytes())
	}
}

// sseEvent writes one event whose data lines are the lines of data.
func sseEvent(w io.Writer, event string, data []byte) {
	lines := strings.ReplaceAll(strings.TrimSuffix(string(data), "\n"), "\n", "\ndata: ")
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, lines)
}

// Serve starts an HTTP server for the hub on addr and returns it, its Addr
// set to the bound address (which resolves ":0"); it runs until Close.
func Serve(addr string, h *Hub) (*http.Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Addr: ln.Addr().String(), Handler: h.Handler()}
	go func() { _ = srv.Serve(ln) }()
	return srv, nil
}
