package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"conga/internal/sim"
)

// tapRegistry builds a registry attached to hub (so with a tap; wall gate
// disabled so tests control publishing purely with sim time), with every
// table the tap carries: counters, series (capped at 16 points, so a run of
// a few dozen observations compacts) and path rows.
func tapRegistry(hub *Hub, name string) *Registry {
	return New(Options{
		SeriesCap: 16, Decisions: true,
		TapWall: -1, Hub: hub, RunName: name,
	})
}

// fileOf returns the snapshot's file of table t (and, for a series, probe).
func fileOf(s *Snapshot, t *Table, probe string) *SinkFile {
	for _, f := range s.Files {
		if f.Table == t && f.Probe == probe {
			return f
		}
	}
	return nil
}

func TestTapPublishGating(t *testing.T) {
	if New(Options{}).tap != nil {
		t.Fatal("a registry without a Hub has a tap")
	}
	hub := NewHub()
	r := tapRegistry(hub, "")
	tap := hub.Run("run-1")
	if tap == nil {
		t.Fatalf("a registry with a Hub has no tap under the auto name (runs %v)", hub.Runs())
	}
	if tap.Load() != nil {
		t.Fatal("snapshot existed before any publish")
	}
	s := r.NewSeries("q", "bytes")
	s.Observe(10, 1)

	r.PublishTap(10)
	first := tap.Load()
	if first == nil || first.Seq != 1 || first.Done {
		t.Fatalf("first publish: %+v", first)
	}
	r.PublishTap(10 + tapInterval - 1) // within the sim interval: gated
	if tap.Load().Seq != 1 {
		t.Fatal("publish inside the sim interval was not gated")
	}
	s.Observe(10+tapInterval, 2)
	r.PublishTap(10 + tapInterval)
	second := tap.Load()
	q := fileOf(second, SeriesTable, "q")
	if second.Seq != 2 || q == nil || len(q.Points) != 2 || fileOf(second, CounterTable, "") == nil {
		t.Fatalf("second publish: %+v", second)
	}
	// Snapshots are immutable copies: later observations must not leak
	// into an already-published snapshot.
	s.Observe(20+tapInterval, 3)
	if len(fileOf(tap.Load(), SeriesTable, "q").Points) != 2 {
		t.Fatal("published snapshot aliases the live series buffer")
	}

	r.FinishTap(15 + tapInterval) // the final publish ignores the interval gate
	last := tap.Load()
	if last.Seq != 3 || !last.Done {
		t.Fatalf("FinishTap: %+v", last)
	}
}

// TestLiveStreamIsTheFileEncoding: an SSE reader that decodes every event's
// data lines with DecodeSink — appending "series" rows, replacing on every
// other event — ends up holding exactly the counters, series and paths files
// the registry's flush writes, read back by ReadSinkFile. A series compacts
// mid-stream, so the reset path is taken too.
func TestLiveStreamIsTheFileEncoding(t *testing.T) {
	hub := NewHub()
	r := tapRegistry(hub, "live")
	r.SetProvenance("stream test")
	link := r.Link("l0->s0.0")
	q := r.NewSeries("queue.l0->s0.0", "bytes")
	dre := r.NewSeries("dre.l0", "bits/s")
	dec := r.Decisions(0, 2, 2)
	srv := httptest.NewServer(hub.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/stream?run=live")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	type result struct {
		files           map[string]*SinkFile
		appends, resets int
	}
	seqs, done := make(chan uint64, 16), make(chan result, 1)
	go func() {
		res := result{files: map[string]*SinkFile{}}
		defer func() { done <- res }()
		event, data := "", []byte(nil)
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			if v, ok := strings.CutPrefix(line, "event: "); ok {
				event = v
			} else if v, ok := strings.CutPrefix(line, "data: "); ok {
				data = append(append(data, v...), '\n')
			} else if line != "" {
				t.Errorf("unexpected stream line %q", line)
			} else if event == "snapshot" {
				var head struct {
					Seq uint64 `json:"seq"`
				}
				if err := json.Unmarshal(data, &head); err != nil {
					t.Errorf("snapshot headline %q: %v", data, err)
				}
				seqs <- head.Seq
				event, data = "", nil
			} else {
				f, err := DecodeSink(event, data)
				if err != nil {
					t.Errorf("event %s: %v", event, err)
				} else if key := f.Table.Name + "_" + f.Probe; event == "series" && res.files[key] != nil {
					res.files[key].Points = append(res.files[key].Points, f.Points...)
					res.appends++
				} else {
					if event == "series-reset" {
						res.resets++
					}
					res.files[key] = f
				}
				event, data = "", nil
			}
		}
	}()

	var now sim.Time
	for step := uint64(1); step <= 6; step++ {
		// q: five observations in steps 1-3 and sixteen in step 4, whose
		// second compacts it (cap 16) before it regrows past the 15 rows
		// the reader holds, so only their last row says they are stale;
		// then no more. dre: five every step, so step 4 compacts it below
		// the rows the reader holds.
		qn := []int{0, 5, 5, 5, 16, 0, 0}[step]
		for i := 0; i < max(qn, 5); i++ {
			now += 1000
			if i < qn {
				q.Observe(now, float64(step*100)+float64(i))
			}
			if i < 5 {
				dre.Observe(now, float64(i)*1.5e9)
			}
		}
		link.Enqueues += step
		dec.AddBytes(int(step%2), 1, 100)
		now += tapInterval
		r.PublishTap(now)
		select {
		case seq := <-seqs:
			if seq != step {
				t.Fatalf("stream sent snapshot %d, want %d", seq, step)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("stream never sent snapshot %d", step)
		}
	}
	r.FinishTap(now) // the stream sends it and closes
	res := <-done
	if res.appends == 0 || res.resets != 2 { // q's and dre's, both in step 4
		t.Errorf("stream took %d appends and %d series resets, want some and 2", res.appends, res.resets)
	}

	dir := t.TempDir()
	if err := r.FlushTo(dir); err != nil {
		t.Fatal(err)
	}
	names, _ := filepath.Glob(filepath.Join(dir, "*.ndjson"))
	live := 0
	for _, path := range names {
		want, err := ReadSinkFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if want.Table != CounterTable && want.Table != SeriesTable && want.Table != PathTable {
			continue
		}
		live++
		if got := res.files[want.Table.Name+"_"+want.Probe]; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the stream built\n%+v\nthe flush wrote\n%+v", filepath.Base(path), got, want)
		}
	}
	if live != 4 || len(res.files) != live {
		t.Errorf("stream built %d files, the flush wrote %d live-table files; want 4 of each", len(res.files), live)
	}
}

func TestHubHTTPEndpoints(t *testing.T) {
	hub := NewHub()
	r := tapRegistry(hub, "demo")
	r.Link("l0->s0.0").Enqueues++
	s := r.NewSeries("queue.l0->s0.0", "bytes")
	s.Observe(10, 1500)
	r.Decisions(0, 2, 2).AddBytes(1, 1, 100)
	r.Collect()
	r.FinishTap(10)
	dir := t.TempDir()
	if err := r.FlushTo(dir); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(hub.Handler())
	defer srv.Close()
	get := func(path string) []byte {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: %s %s", path, resp.Status, body)
		}
		return body
	}

	var ov struct {
		Runs []struct {
			Name string `json:"name"`
			Done bool   `json:"done"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(get("/"), &ov); err != nil || len(ov.Runs) != 1 || ov.Runs[0].Name != "demo" || !ov.Runs[0].Done {
		t.Fatalf("overview: %+v (error %v)", ov, err)
	}

	// Each file endpoint serves the bytes the flush wrote, which DecodeSink
	// reads. Both the raw series name and its filesystem-sanitized form
	// resolve.
	for path, file := range map[string]string{
		"/counters?run=demo":     "counters.ndjson",
		"/paths":                 "paths.ndjson",
		"/series/queue.l0->s0.0": "series_queue.l0-s0.0.ndjson",
		"/series/" + sanitizeName("queue.l0->s0.0") + "?run=demo": "series_queue.l0-s0.0.ndjson",
	} {
		body := get(path)
		if want, _ := os.ReadFile(filepath.Join(dir, file)); !bytes.Equal(body, want) {
			t.Errorf("GET %s:\n%s\nwant the flushed %s:\n%s", path, body, file, want)
		}
		if _, err := DecodeSink(path, body); err != nil {
			t.Errorf("GET %s: %v", path, err)
		}
	}
	f, _ := DecodeSink("counters", get("/counters"))
	if len(f.Counters) == 0 || f.Counters[0] != (CounterRow{"link", "l0->s0.0", "enqueues", 1}) {
		t.Fatalf("enqueue counter missing from /counters: %+v", f.Counters)
	}
	if got := string(get("/series")); got != "queue.l0->s0.0\n" {
		t.Fatalf("series index: %q", got)
	}

	// Unknown run 404s and names the known runs.
	resp, err := srv.Client().Get(srv.URL + "/counters?run=nope")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 404 || !strings.Contains(string(body), "demo") {
		t.Fatalf("unknown run: %s %q", resp.Status, body)
	}
}
