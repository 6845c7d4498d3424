package conga

import (
	"reflect"
	"testing"
	"time"

	"conga/internal/runner"
	"conga/internal/telemetry"
)

// TestTelemetryDoesNotPerturbSimulation is the "probes observe, never
// schedule" acceptance test: the same seeded config must produce a
// bit-identical result — event count, FCTs, drops, everything — with
// telemetry fully enabled as with it off. Samplers piggyback on the existing
// DRE and flowlet tickers, counters are plain field bumps, and sinks only
// run post-engine, so nothing about the event sequence may change. The
// capped rows also hold a triggered flight-recorder trace (tail and
// reservoir) to its cap, so the capture policies are under the same check.
func TestTelemetryDoesNotPerturbSimulation(t *testing.T) {
	skipSingleGoroutine(t)
	capped := func(mode telemetry.CaptureMode) func(*TelemetryOptions) {
		return func(o *TelemetryOptions) {
			o.TraceMode = mode
			o.TraceCap = 256 // force suppression so the capture policy is exercised
			o.TraceTrigger = telemetry.TriggerFirstRTO | telemetry.TriggerFirstDrop
			o.TraceStopAfter = 32
		}
	}
	rows := []struct {
		name   string
		scheme Scheme
		opts   func(*TelemetryOptions)
	}{
		{"ecmp", SchemeECMP, nil},
		{"conga", SchemeCONGA, nil},
		{"mptcp", SchemeMPTCPMarker, nil},
		{"conga_tail_cap256", SchemeCONGA, capped(telemetry.CaptureTail)},
		{"conga_reservoir_cap256", SchemeCONGA, capped(telemetry.CaptureReservoir)},
	}
	offs := map[Scheme]*FCTResult{} // the telemetry-off run, per scheme
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			cfg := FCTConfig{
				Topology: Topology{Leaves: 2, Spines: 2, HostsPerLeaf: 4, LinksPerSpine: 1,
					AccessGbps: 10, FabricGbps: 10},
				Scheme:   row.scheme,
				Workload: WorkloadEnterprise,
				Load:     0.6,
				Duration: 10 * time.Millisecond,
				MaxFlows: 120,
				Seed:     7,
				// Per-flow FCT vectors sharpen the bit-identity check: any
				// reordered completion shows up flow by flow, not just in
				// the aggregate stats.
				CollectFlows: true,
			}
			off := offs[row.scheme]
			if off == nil {
				var err error
				if off, err = RunFCT(cfg); err != nil {
					t.Fatal(err)
				}
				offs[row.scheme] = off
			}
			opts := TelemetryAll("") // every probe on, no flush dir
			if row.opts != nil {
				row.opts(opts)
			}
			cfg.Telemetry = opts
			on, err := RunFCT(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if on.Telemetry == nil {
				t.Fatal("telemetry requested but result carries none")
			}
			reg := on.Telemetry
			on.Telemetry = nil
			off.Wall, on.Wall = 0, 0 // wall clock is environment, not behavior
			if !reflect.DeepEqual(off, on) {
				t.Fatalf("telemetry changed the simulation\noff: %+v\non:  %+v", off, on)
			}
			// The probes must have actually observed something, or the
			// test proves nothing.
			if enq, _, _, _ := reg.LinkTotals(); enq == 0 {
				t.Fatal("no enqueues counted")
			}
			if len(reg.AllSeries()) == 0 {
				t.Fatal("no series registered")
			}
			if row.opts != nil {
				// The trace must have really exercised the policy: capped,
				// with suppression accounted for.
				info := reg.Trace().Info()
				if info.Mode != opts.TraceMode || info.Cap != 256 {
					t.Fatalf("trace policy not applied: %+v", info)
				}
				if info.Recorded+int(info.Suppressed) != info.Seen {
					t.Fatalf("trace capture accounting broken: %+v", info)
				}
				if info.Suppressed == 0 {
					t.Fatalf("trace never hit its cap; the row proves nothing: %+v", info)
				}
			}
			// TelemetryAll includes the decision plane, so the bit-identity
			// check above already covers it; here make sure it observed
			// real decisions on the scheme that has a decision plane.
			if row.scheme == SchemeCONGA {
				dt := reg.DecisionTotals()
				if dt.Sticky+dt.NewFlowlet+dt.Expired+dt.Evicted == 0 {
					t.Fatal("decision hooks recorded nothing")
				}
				tr := reg.DecisionTrace()
				if len(tr.Events()) == 0 {
					t.Fatal("decision trace empty")
				}
				if info := tr.Info(); info.Recorded+int(info.Suppressed) != info.Seen {
					t.Fatalf("capture accounting broken: recorded %d + suppressed %d != seen %d",
						info.Recorded, info.Suppressed, info.Seen)
				}
				if len(reg.PathRows()) == 0 {
					t.Fatal("path load matrix empty")
				}
			}
		})
	}
}

// TestTelemetryDoesNotPerturbIncast covers the goodput acceptance metric on
// the Incast micro-benchmark.
func TestTelemetryDoesNotPerturbIncast(t *testing.T) {
	skipSingleGoroutine(t)
	cfg := IncastConfig{
		Topology: Topology{Leaves: 2, Spines: 2, HostsPerLeaf: 8, LinksPerSpine: 1,
			AccessGbps: 10, FabricGbps: 10},
		Scheme: SchemeCONGA,
		Fanout: 8,
		Rounds: 2,
		Seed:   3,
	}
	off, err := RunIncast(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := TelemetryAll("")
	cfg.Telemetry = opts
	on, err := RunIncast(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if on.Telemetry == nil {
		t.Fatal("telemetry requested but result carries none")
	}
	on.Telemetry = nil
	off.Wall, on.Wall = 0, 0 // wall clock is environment, not behavior
	if !reflect.DeepEqual(off, on) {
		t.Fatalf("telemetry changed incast results\noff: %+v\non:  %+v", off, on)
	}
}

// TestTelemetryRegistriesIsolatedAcrossEngines drives ≥8 concurrent engines
// through runner.MapStream, all with telemetry on, and asserts per-engine
// isolation: every run owns a distinct registry, and duplicate configs
// produce identical counter rows regardless of which worker ran them. Run
// under -race this also proves no registry state is shared across engines.
func TestTelemetryRegistriesIsolatedAcrossEngines(t *testing.T) {
	topo := Topology{Leaves: 2, Spines: 2, HostsPerLeaf: 4, LinksPerSpine: 1,
		AccessGbps: 10, FabricGbps: 10}
	opts := TelemetryAll("") // shared options value is fine; each run builds its own registry
	var cfgs []FCTConfig
	for rep := 0; rep < 2; rep++ { // duplicates land on different workers
		for _, s := range []Scheme{SchemeECMP, SchemeCONGA} {
			for seed := uint64(1); seed <= 2; seed++ {
				cfgs = append(cfgs, FCTConfig{
					Topology: topo, Scheme: s, Workload: WorkloadEnterprise,
					Load: 0.5, Duration: 8 * time.Millisecond, MaxFlows: 60,
					Seed: seed, Telemetry: opts,
				})
			}
		}
	}
	if len(cfgs) < 8 {
		t.Fatalf("test wants ≥8 engines, built %d", len(cfgs))
	}
	streamed := 0
	results, err := runner.MapStream(8, cfgs, RunFCT, func(i int, r *FCTResult, err error) {
		streamed++
	})
	if err != nil {
		t.Fatal(err)
	}
	if streamed != len(cfgs) {
		t.Fatalf("emit saw %d results, want %d", streamed, len(cfgs))
	}

	seen := make(map[*TelemetryRegistry]int)
	for i, r := range results {
		if r.Telemetry == nil {
			t.Fatalf("run %d has no registry", i)
		}
		if j, dup := seen[r.Telemetry]; dup {
			t.Fatalf("runs %d and %d share a registry", j, i)
		}
		seen[r.Telemetry] = i
	}

	// Duplicate configs (i and i+half) must agree counter for counter.
	half := len(cfgs) / 2
	for i := 0; i < half; i++ {
		a, b := results[i].Telemetry.CounterRows(), results[i+half].Telemetry.CounterRows()
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("duplicate config %d: counter rows differ across workers\na: %+v\nb: %+v", i, a, b)
		}
		if enq, _, _, _ := results[i].Telemetry.LinkTotals(); enq == 0 {
			t.Fatalf("run %d counted nothing", i)
		}
	}
}
