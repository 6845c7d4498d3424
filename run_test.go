package conga

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"conga/internal/sim"
)

// TestCongaFlowTimeoutReachesEveryHarness: a scheme label must mean its
// parameters. Every harness builds through newRun, whose nil-params rule
// leaves the flowlet timeout to the fabric's scheme-aware default — so
// "conga-flow" is 13 ms flowlets under FCT, Incast, HDFS and the
// long-lived-load scenarios alike, and "conga" 500 µs. The harnesses other
// than FCT used to hand the fabric an explicit DefaultParams(), which ran
// CONGA under the CONGA-Flow label.
func TestCongaFlowTimeoutReachesEveryHarness(t *testing.T) {
	fct := FCTConfig{Scheme: SchemeCONGAFlow}.withDefaults()
	incast := IncastConfig{Scheme: SchemeCONGAFlow}.withDefaults()
	hdfs := HDFSConfig{Scheme: SchemeCONGAFlow}.withDefaults()
	harnesses := []struct {
		name      string
		topo      Topology
		params    *Params
		transport TransportConfig
	}{
		{"fct", fct.Topology, fct.Params, fct.Transport},
		{"incast", incast.Topology, nil, incast.Transport},
		{"hdfs", hdfs.Topology, nil, hdfs.Transport},
		{"long-lived", quickTopo(), nil, TransportConfig{}.withDefaults()},
	}
	for _, h := range harnesses {
		for scheme, want := range map[Scheme]sim.Time{
			SchemeCONGAFlow: 13 * sim.Millisecond,
			SchemeCONGA:     500 * sim.Microsecond,
		} {
			r, err := newRun(h.topo, scheme, h.params, h.transport, nil, 1, nil, 1)
			if err != nil {
				t.Fatalf("%s/%s: %v", h.name, SchemeName(scheme), err)
			}
			if got := r.net.Cfg.Params.Tfl; got != want {
				t.Errorf("%s/%s: flowlet timeout %v, want %v", h.name, SchemeName(scheme), got, want)
			}
		}
	}

	// End to end: the two labels must no longer run the same simulation.
	events := map[Scheme]uint64{}
	for _, scheme := range []Scheme{SchemeCONGA, SchemeCONGAFlow} {
		res, err := RunHDFS(HDFSConfig{
			Topology:       benchTopo(),
			Scheme:         scheme,
			Transport:      TransportConfig{MinRTO: 10 * time.Millisecond},
			Writers:        8,
			BytesPerWriter: 1 << 20,
			BlockBytes:     256 << 10,
			DiskMBps:       200,
			BackgroundLoad: 0.3,
			Seed:           5,
		})
		if err != nil {
			t.Fatal(err)
		}
		events[scheme] = res.Events
	}
	if events[SchemeCONGA] == events[SchemeCONGAFlow] {
		t.Errorf("RunHDFS executed %d events under both conga and conga-flow: the label did not reach the fabric",
			events[SchemeCONGA])
	}
}

// TestParallelRecordingProvenance: a recording run's sink headers carry the
// sealed trace's flow count at any domain count. The parallel harness used
// to format an unsealed header and stamped flows=0.
func TestParallelRecordingProvenance(t *testing.T) {
	headerLine := func(parallel int) (string, int) {
		cfg := replayTestConfig(SchemeCONGA)
		cfg.Record = true
		cfg.Parallel = parallel
		cfg.Telemetry = &TelemetryOptions{Counters: true, Dir: t.TempDir()}
		res, err := RunFCT(cfg)
		if err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(filepath.Join(cfg.Telemetry.Dir, "counters.csv"))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		if !sc.Scan() {
			t.Fatal("counters.csv is empty")
		}
		return sc.Text(), res.Generated
	}
	seq, generated := headerLine(1)
	par, _ := headerLine(2)
	want := fmt.Sprintf("flows=%d ", generated)
	if generated == 0 || !strings.Contains(par, want) {
		t.Errorf("parallel recording's sink header %q does not carry %q", par, want)
	}
	if par != seq {
		t.Errorf("sink headers differ for the same cell:\n  Parallel=2: %s\n  sequential: %s", par, seq)
	}
}
