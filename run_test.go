package conga

import (
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
	skipSingleGoroutine(t)
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
			r, err := newRun(h.topo, scheme, h.params, h.transport, 1, nil, 1)
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

// TestHostileConfigsReturnErrors: a config no run can honour comes back as
// an error naming the offending field — not a panic from inside the fabric
// or the transport, and not a nil error over an empty result.
func TestHostileConfigsReturnErrors(t *testing.T) {
	fct := func(edit func(*FCTConfig)) func() error {
		return func() error {
			cfg := quickFCT(SchemeCONGA, WorkloadEnterprise, 0.4)
			cfg.MaxFlows = 5
			edit(&cfg)
			_, err := RunFCT(cfg)
			return err
		}
	}
	incast := func(edit func(*IncastConfig)) func() error {
		return func() error {
			cfg := IncastConfig{Topology: quickTopo(), Fanout: 4, RequestBytes: 1 << 16, Rounds: 1,
				Transport: TransportConfig{MinRTO: 10 * time.Millisecond}}
			edit(&cfg)
			_, err := RunIncast(cfg)
			return err
		}
	}
	hdfs := func(edit func(*HDFSConfig)) func() error {
		return func() error {
			cfg := HDFSConfig{Topology: quickTopo(), Writers: 2, BytesPerWriter: 1 << 16, BlockBytes: 1 << 16,
				Transport: TransportConfig{MinRTO: 10 * time.Millisecond}, Timeout: time.Second}
			edit(&cfg)
			_, err := RunHDFS(cfg)
			return err
		}
	}
	scale := func(edit func(*ScaleConfig)) func() error {
		return func() error {
			cfg := ScaleConfig{Leaves: []int{2}, AccessGbps: []float64{10}, Duration: time.Millisecond, MaxFlows: 5}
			edit(&cfg)
			_, err := RunScaleStream(cfg, nil)
			return err
		}
	}
	rows := []struct {
		name, want string
		run        func() error
	}{
		{"Topology.AccessGbps < 0", "AccessRateBps", fct(func(c *FCTConfig) { c.Topology.AccessGbps = -1 })},
		{"Topology.FabricGbps < 0", "FabricRateBps", fct(func(c *FCTConfig) { c.Topology.FabricGbps = -40 })},
		{"Topology.EdgeBufBytes < 0", "buffer", fct(func(c *FCTConfig) { c.Topology.EdgeBufBytes = -1 })},
		{"Topology.FabricBufBytes < 0", "buffer", incast(func(c *IncastConfig) { c.Topology.FabricBufBytes = -1 })},
		{"Topology.FailedLinks out of range", "FailedLinks[1]", fct(func(c *FCTConfig) { c.Topology.FailedLinks = [][3]int{{0, 1, 0}, {9, 9, 9}} })},
		{"Topology.FailedLinks negative", "FailedLinks[0]", incast(func(c *IncastConfig) { c.Topology.FailedLinks = [][3]int{{0, -1, 0}} })},
		{"Topology.LinkRates out of range", "LinkRates[1]", fct(func(c *FCTConfig) {
			c.Topology.LinkRates = []LinkRate{{Leaf: 1, Spine: 1, K: 0, Gbps: 5}, {Leaf: 0, Spine: 2, K: 0, Gbps: 5}}
		})},
		{"Topology.LinkRates rate = 0", "LinkRates[0]", incast(func(c *IncastConfig) { c.Topology.LinkRates = []LinkRate{{Leaf: 0, Spine: 0, K: 0}} })},
		{"Topology.Leaves = 1", "leaves", fct(func(c *FCTConfig) { c.Topology.Leaves = 1 })},
		{"Transport.MTU too small", "MTU", fct(func(c *FCTConfig) { c.Transport.MTU = 10 })},
		{"Transport.MTU too small (incast)", "MTU", incast(func(c *IncastConfig) { c.Transport.MTU = 40 })},
		{"Transport.MTU absurd", "MSS 1048536 exceeds 65495", fct(func(c *FCTConfig) { c.Transport.MTU = 1 << 20 })},
		{"Transport.MTU absurd (incast)", "MSS 65496 exceeds 65495", incast(func(c *IncastConfig) { c.Transport.MTU = 1 << 16 })},
		{"Transport.MinRTO < 0", "MinRTO", fct(func(c *FCTConfig) { c.Transport.MinRTO = -time.Second })},
		{"Transport.Subflows < 0", "Subflows", fct(func(c *FCTConfig) { c.Transport.Subflows = -2 })},
		{"FCTConfig.Load = 0", "load", fct(func(c *FCTConfig) { c.Load = 0 })},
		{"FCTConfig.Load < 0", "load", fct(func(c *FCTConfig) { c.Load = -0.5 })},
		{"FCTConfig.MaxFlows < 0", "MaxFlows", fct(func(c *FCTConfig) { c.MaxFlows = -1 })},
		{"FCTConfig.DrainTimeout < 0", "DrainTimeout", fct(func(c *FCTConfig) { c.DrainTimeout = -time.Second })},
		{"FCTConfig.Params.Q = 0", "Q", fct(func(c *FCTConfig) { p := DefaultParams(); p.Q = 0; c.Params = &p })},
		{"FCTConfig.Params.Tfl = 0", "Tfl", fct(func(c *FCTConfig) { p := DefaultParams(); p.Tfl = 0; c.Params = &p })},
		{"FCTConfig.Params.FlowletTableSize = 1<<36", "FlowletTableSize", fct(func(c *FCTConfig) {
			p := DefaultParams()
			p.FlowletTableSize = 1 << 36
			c.Params = &p
		})},
		{"IncastConfig.Fanout < 0", "Fanout", incast(func(c *IncastConfig) { c.Fanout = -1 })},
		{"IncastConfig.Fanout ≥ hosts", "fanout", incast(func(c *IncastConfig) { c.Fanout = 16 })},
		{"IncastConfig.RequestBytes < 0", "RequestBytes", incast(func(c *IncastConfig) { c.RequestBytes = -1 })},
		{"IncastConfig.Rounds < 0", "Rounds", incast(func(c *IncastConfig) { c.Rounds = -3 })},
		{"IncastConfig.Timeout < 0", "Timeout", incast(func(c *IncastConfig) { c.Timeout = -time.Second })},
		{"HDFSConfig.BackgroundLoad < 0", "BackgroundLoad", hdfs(func(c *HDFSConfig) { c.BackgroundLoad = -0.3 })},
		{"HDFSConfig.Timeout < 0", "Timeout", hdfs(func(c *HDFSConfig) { c.Timeout = -time.Second })},
		{"HDFSConfig.Writers < 0", "Writers", hdfs(func(c *HDFSConfig) { c.Writers = -1 })},
		{"HDFSConfig.DiskMBps < 0", "DiskBps", hdfs(func(c *HDFSConfig) { c.DiskMBps = -100 })},
		{"ScaleConfig.Parallel = 2", "Parallel", scale(func(c *ScaleConfig) { c.Parallel = 2 })},
		{"ScaleConfig.Leaves = {1}", "leaves", scale(func(c *ScaleConfig) { c.Leaves = []int{1} })},
		{"ScaleConfig.AccessGbps = {-40}", "AccessRateBps", scale(func(c *ScaleConfig) { c.AccessGbps = []float64{-40} })},
		{"ScaleConfig.Duration < 0", "duration", scale(func(c *ScaleConfig) { c.Duration = -time.Millisecond })},
		{"RunFigure2 scheme mptcp", "mptcp", func() error { _, err := RunFigure2(SchemeMPTCPMarker, 1); return err }},
		{"RunFigure3 scheme mptcp", "mptcp", func() error { _, err := RunFigure3(SchemeMPTCPMarker, true, 1); return err }},
		{"RunFigure2 unknown scheme", "unknown scheme", func() error { _, err := RunFigure2(Scheme(77), 1); return err }},
		{"RunFigure3 unknown scheme", "unknown scheme", func() error { _, err := RunFigure3(Scheme(77), false, 1); return err }},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panicked instead of returning an error: %v", r)
				}
			}()
			err := row.run()
			if err == nil {
				t.Fatal("accepted")
			}
			if !strings.Contains(err.Error(), row.want) {
				t.Fatalf("error %q does not name %q", err, row.want)
			}
		})
	}
}
