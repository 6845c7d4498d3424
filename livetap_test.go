package conga

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"conga/internal/telemetry"
)

// liveTopo is the small fabric the live-tap tests run on.
var liveTopo = Topology{Leaves: 2, Spines: 2, HostsPerLeaf: 4, LinksPerSpine: 1,
	AccessGbps: 10, FabricGbps: 10}

// TestLiveTapConcurrentEngines drives >= 8 concurrent engines, each
// publishing tap snapshots into one shared hub served over HTTP, while
// reader goroutines hammer the endpoint mid-run. Under -race this is the
// proof that the lock-free snapshot handoff is sound: engines publish from
// their tick safe points, readers only ever Load immutable snapshots, and
// the hub's run list is the only synchronized structure. Duplicate configs must
// still produce bit-identical results — concurrent observation cannot
// perturb any engine.
func TestLiveTapConcurrentEngines(t *testing.T) {
	hub := NewTelemetryHub()
	srv, err := ServeTelemetry("127.0.0.1:0", hub)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr

	var cfgs []FCTConfig
	for rep := 0; rep < 2; rep++ { // rep 0 and 1 are identical configs
		for seed := uint64(1); seed <= 4; seed++ {
			opts := TelemetryAll("")
			opts.Trace = false
			opts.TapWall = -1 // publish every tap interval; stress the readers
			opts.Hub = hub
			opts.RunName = fmt.Sprintf("rep%d-seed%d", rep, seed)
			cfgs = append(cfgs, FCTConfig{
				Topology: liveTopo, Scheme: SchemeCONGA, Workload: WorkloadEnterprise,
				Load: 0.5, Duration: 8 * time.Millisecond, MaxFlows: 60,
				Seed: seed, Telemetry: opts,

				// Every flow of these seeds completes within 30 ms. A
				// run ticks on to its drain horizon after its last
				// flow, and the default 2 s of it would be idle ticks
				// whose every 1 ms publish copies every series'
				// retained points.
				DrainTimeout: 30 * time.Millisecond,
			})
		}
	}
	if len(cfgs) < 8 {
		t.Fatalf("test wants >= 8 engines, built %d", len(cfgs))
	}

	// Readers poll the overview and every run's counters until the sweep
	// finishes; they tolerate 404s (runs attach as workers start them).
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { readerDone <- struct{}{} }()
			client := &http.Client{Timeout: 2 * time.Second}
			for {
				select {
				case <-stop:
					return
				default:
				}
				urls := []string{base + "/"}
				for _, c := range cfgs {
					urls = append(urls, base+"/counters?run="+c.Telemetry.RunName,
						base+"/series?run="+c.Telemetry.RunName)
				}
				resp, err := client.Get(urls[g%len(urls)])
				if err == nil {
					_ = json.NewDecoder(resp.Body).Decode(&map[string]any{})
					resp.Body.Close()
				}
			}
		}(g)
	}

	results, err := RunFCTsStream(cfgs, nil)
	close(stop)
	for g := 0; g < 4; g++ {
		<-readerDone
	}
	if err != nil {
		t.Fatal(err)
	}

	if runs := hub.Runs(); len(runs) != len(cfgs) {
		t.Fatalf("hub has %d runs, want %d: %v", len(runs), len(cfgs), runs)
	}
	for _, c := range cfgs {
		tap := hub.Run(c.Telemetry.RunName)
		if tap == nil {
			t.Fatalf("run %s never attached", c.Telemetry.RunName)
		}
		s := tap.Load()
		if s == nil || !s.Done {
			t.Fatalf("run %s final snapshot missing or not Done: %+v", c.Telemetry.RunName, s)
		}
		if s.Progress.FlowsCompleted == 0 || s.Progress.FlowsCompleted != s.Progress.FlowsGenerated ||
			s.Progress.Events == 0 {
			t.Fatalf("run %s progress empty or a flow unfinished at the drain horizon: %+v",
				c.Telemetry.RunName, s.Progress)
		}
	}

	// rep 0 and rep 1 ran the same seeds on different workers while
	// readers polled: results must be bit-identical.
	half := len(cfgs) / 2
	for i := 0; i < half; i++ {
		a, b := *results[i], *results[i+half]
		a.Telemetry, b.Telemetry = nil, nil
		a.Wall, b.Wall = 0, 0 // wall clock is environment, not behavior
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("live observation perturbed run %d:\na: %+v\nb: %+v", i, a, b)
		}
	}
}

// TestLiveObservabilityDoesNotPerturb is the end-to-end determinism
// acceptance test for the observability plane: a run with the streaming
// tap published to an HTTP hub, an SSE reader consuming snapshot deltas
// mid-run, AND a triggered flight-recorder trace must produce results
// bit-identical to the same seeded run with telemetry off entirely.
func TestLiveObservabilityDoesNotPerturb(t *testing.T) {
	cfg := FCTConfig{
		Topology: liveTopo, Scheme: SchemeCONGA, Workload: WorkloadEnterprise,
		Load: 0.6, Duration: 10 * time.Millisecond, MaxFlows: 120, Seed: 7,
	}
	off, err := RunFCT(cfg)
	if err != nil {
		t.Fatal(err)
	}

	for _, mode := range []telemetry.CaptureMode{telemetry.CaptureTail, telemetry.CaptureReservoir} {
		hub := NewTelemetryHub()
		srv, err := ServeTelemetry("127.0.0.1:0", hub)
		if err != nil {
			t.Fatal(err)
		}

		opts := TelemetryAll("")
		opts.TraceMode = mode
		opts.TraceCap = 256 // force suppression so the capture policy is exercised
		opts.TraceTrigger = telemetry.TriggerFirstRTO | telemetry.TriggerFirstDrop
		opts.TraceStopAfter = 32
		opts.TapWall = -1
		opts.Hub = hub
		opts.RunName = "live"
		cfg.Telemetry = opts

		// SSE reader: retries until the run attaches, then consumes
		// snapshot events until the server closes the stream on Done.
		type sseResult struct {
			snapshots int
			err       error
		}
		sseCh := make(chan sseResult, 1)
		go func() {
			deadline := time.Now().Add(30 * time.Second)
			for {
				resp, err := http.Get("http://" + srv.Addr + "/stream?run=live")
				if err != nil {
					sseCh <- sseResult{err: err}
					return
				}
				if resp.StatusCode != http.StatusOK { // run not attached yet
					resp.Body.Close()
					if time.Now().After(deadline) {
						sseCh <- sseResult{err: fmt.Errorf("stream never became ready: %s", resp.Status)}
						return
					}
					time.Sleep(2 * time.Millisecond)
					continue
				}
				n := 0
				sc := bufio.NewScanner(resp.Body)
				sc.Buffer(make([]byte, 1<<20), 1<<20)
				for sc.Scan() {
					if strings.HasPrefix(sc.Text(), "event: snapshot") {
						n++
					}
				}
				resp.Body.Close()
				sseCh <- sseResult{snapshots: n}
				return
			}
		}()

		on, err := RunFCT(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sse := <-sseCh
		srv.Close()
		if sse.err != nil {
			t.Fatalf("%v: SSE reader: %v", mode, sse.err)
		}
		if sse.snapshots == 0 {
			t.Fatalf("%v: SSE reader saw no snapshots", mode)
		}

		reg := on.Telemetry
		if reg == nil {
			t.Fatalf("%v: no registry", mode)
		}
		on.Telemetry = nil
		off.Wall, on.Wall = 0, 0 // wall clock is environment, not behavior
		if !reflect.DeepEqual(off, on) {
			t.Fatalf("%v: live observability changed the simulation\noff: %+v\non:  %+v", mode, off, on)
		}

		// The trace must have really exercised the policy: capped, with
		// suppression accounted for.
		info := reg.Trace().Info()
		if info.Mode != mode || info.Cap != 256 {
			t.Fatalf("trace policy not applied: %+v", info)
		}
		if info.Recorded+int(info.Suppressed) != info.Seen {
			t.Fatalf("%v: capture accounting broken: %+v", mode, info)
		}
		if info.Suppressed == 0 {
			t.Fatalf("%v: trace never hit its cap; the test proves nothing: %+v", mode, info)
		}
	}
}
