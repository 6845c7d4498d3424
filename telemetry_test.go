package conga

import (
	"reflect"
	"testing"
	"time"

	"conga/internal/runner"
)

// TestTelemetryDoesNotPerturbSimulation is the "probes observe, never
// schedule" acceptance test: the same seeded config must produce a
// bit-identical result — event count, FCTs, drops, everything — with
// telemetry fully enabled as with it off. Samplers piggyback on the existing
// DRE and flowlet tickers, counters are plain field bumps, and sinks only
// run post-engine, so nothing about the event sequence may change.
func TestTelemetryDoesNotPerturbSimulation(t *testing.T) {
	skipSingleGoroutine(t)
	for _, scheme := range []Scheme{SchemeECMP, SchemeCONGA, SchemeMPTCPMarker} {
		cfg := FCTConfig{
			Topology: Topology{Leaves: 2, Spines: 2, HostsPerLeaf: 4, LinksPerSpine: 1,
				AccessGbps: 10, FabricGbps: 10},
			Scheme:   scheme,
			Workload: WorkloadEnterprise,
			Load:     0.6,
			Duration: 10 * time.Millisecond,
			MaxFlows: 120,
			Seed:     7,
			// Per-flow FCT vectors sharpen the bit-identity check: any
			// reordered completion shows up flow by flow, not just in the
			// aggregate stats.
			CollectFlows: true,
		}
		off, err := RunFCT(cfg)
		if err != nil {
			t.Fatal(err)
		}
		opts := TelemetryAll("") // every probe on, no flush dir
		cfg.Telemetry = opts
		on, err := RunFCT(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if on.Telemetry == nil {
			t.Fatalf("%s: telemetry requested but result carries none", on.Scheme)
		}
		reg := on.Telemetry
		on.Telemetry = nil
		off.Wall, on.Wall = 0, 0 // wall clock is environment, not behavior
		if !reflect.DeepEqual(off, on) {
			t.Fatalf("%s: telemetry changed the simulation\noff: %+v\non:  %+v", off.Scheme, off, on)
		}
		// The probes must have actually observed something, or the test
		// proves nothing.
		if enq, _, _, _ := reg.LinkTotals(); enq == 0 {
			t.Fatalf("%s: no enqueues counted", off.Scheme)
		}
		if len(reg.AllSeries()) == 0 {
			t.Fatalf("%s: no series registered", off.Scheme)
		}
		// TelemetryAll includes the decision plane, so the bit-identity
		// check above already covers it; here make sure it observed real
		// decisions on the scheme that has a decision plane.
		if off.Scheme == "conga" {
			dt := reg.DecisionTotals()
			if dt.Sticky+dt.NewFlowlet+dt.Expired+dt.Evicted == 0 {
				t.Fatal("conga: decision hooks recorded nothing")
			}
			tr := reg.DecisionTrace()
			if len(tr.Events()) == 0 {
				t.Fatal("conga: decision trace empty")
			}
			if info := tr.Info(); info.Recorded+int(info.Suppressed) != info.Seen {
				t.Fatalf("conga: capture accounting broken: recorded %d + suppressed %d != seen %d",
					info.Recorded, info.Suppressed, info.Seen)
			}
			if len(reg.PathRows()) == 0 {
				t.Fatal("conga: path load matrix empty")
			}
		}
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
