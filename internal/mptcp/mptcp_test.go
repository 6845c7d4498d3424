package mptcp

import (
	"testing"

	"conga/internal/core"
	"conga/internal/fabric"
	"conga/internal/sim"
	"conga/internal/tcp"
)

func testNet(t testing.TB) (*sim.Engine, *fabric.Network) {
	t.Helper()
	eng := sim.New()
	p := core.DefaultParams()
	p.FlowletTableSize = 4096
	n := fabric.MustNetwork(eng, fabric.Config{
		NumLeaves:     2,
		NumSpines:     2,
		HostsPerLeaf:  4,
		LinksPerSpine: 1,
		AccessRateBps: 1e9,
		FabricRateBps: 1e9,
		Scheme:        fabric.SchemeECMP,
		Params:        p,
		Seed:          5,
	})
	return eng, n
}

// testConfig is the paper's MPTCP setup, 8 subflows, built the way the
// harness builds it, with timers scaled to the 1 Gbps test fabric.
func testConfig() Config {
	c := Config{Subflows: 8, TCP: tcp.DefaultConfig(), ChunkSegments: 4}
	c.TCP.MinRTO = 10 * sim.Millisecond
	c.TCP.InitRTO = 50 * sim.Millisecond
	return c
}

// startFlow starts a flow the way the harness does, from a Pool. The flow
// goes back to the pool after onDone, so a test reads the connection of a
// finished flow inside onDone.
func startFlow(eng *sim.Engine, src, dst *fabric.Host, flowIDBase uint64, size int64,
	cfg Config, onDone func(f *Flow, now sim.Time)) *Flow {
	return NewPool().StartFlow(eng, src, dst, flowIDBase, size, cfg, onDone)
}

func TestConfigValidate(t *testing.T) {
	if err := testConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	c := testConfig()
	c.Subflows = 0
	if err := c.Validate(); err == nil {
		t.Fatal("0 subflows accepted")
	}
	c = testConfig()
	c.ChunkSegments = 0
	if err := c.Validate(); err == nil {
		t.Fatal("0 chunk segments accepted")
	}
}

func TestTransferCompletesExactly(t *testing.T) {
	eng, n := testNet(t)
	const size = 3<<20 + 12345
	var fct sim.Time
	var got int64
	startFlow(eng, n.Host(0), n.Host(4), 100, size, testConfig(), func(fl *Flow, now sim.Time) {
		fct, got = fl.FCT(now), fl.Conn.Acked()
	})
	eng.Run(sim.MaxTime)
	if fct == 0 {
		t.Fatal("transfer did not complete")
	}
	if got != size {
		t.Fatalf("acked %d bytes, want %d", got, size)
	}
	// 3 MB at 1 Gbps ≈ 25 ms; allow generous overheads.
	if fct > 100*sim.Millisecond {
		t.Fatalf("FCT %v far beyond line rate", fct)
	}
}

func TestSubflowsUseDistinctFlowIDs(t *testing.T) {
	eng, n := testNet(t)
	c := Dial(eng, n.Host(0), n.Host(4), 500, testConfig())
	defer c.Close()
	seen := map[uint64]bool{}
	for _, s := range c.Subflows() {
		if seen[s.FlowID()] {
			t.Fatalf("duplicate subflow flow ID %d", s.FlowID())
		}
		seen[s.FlowID()] = true
	}
	if len(seen) != 8 {
		t.Fatalf("%d subflows, want 8", len(seen))
	}
}

func TestSubflowsSpreadAcrossPaths(t *testing.T) {
	eng, n := testNet(t)
	var fct sim.Time
	startFlow(eng, n.Host(0), n.Host(4), 700, 8<<20, testConfig(), func(f *Flow, now sim.Time) {
		fct = f.FCT(now)
	})
	eng.Run(sim.MaxTime)
	if fct == 0 {
		t.Fatal("no completion")
	}
	up := n.Leaves[0].Uplinks()
	if up[0].TxPackets() == 0 || up[1].TxPackets() == 0 {
		t.Fatalf("subflows did not spread: uplink tx = %d, %d", up[0].TxPackets(), up[1].TxPackets())
	}
}

// TestLIACouplingLessAggressiveThanNTCPs is the defining property of LIA:
// N coupled subflows through one bottleneck must take roughly one TCP's
// share, not N shares.
func TestLIACouplingLessAggressiveThanNTCPs(t *testing.T) {
	eng, n := testNet(t)
	cfg := testConfig()
	// One MPTCP connection and one plain TCP compete for host 4's access
	// downlink.
	mf := startFlow(eng, n.Host(0), n.Host(4), 1000, 1<<30, cfg, nil)
	tf := tcp.NewFlowPool().StartFlow(eng, n.Host(1), n.Host(4), 2000, 1<<30, cfg.TCP, nil)
	eng.Run(200 * sim.Millisecond)
	mBytes := mf.Conn.Acked()
	tBytes := tf.Sender.Stats().BytesAcked
	ratio := float64(mBytes) / float64(tBytes)
	// Uncoupled 8 subflows would take ~8×; LIA should stay below ~3× and
	// above ~1/3 (it may still be somewhat more aggressive in slow start).
	if ratio > 3.5 || ratio < 0.28 {
		t.Fatalf("MPTCP/TCP share ratio %.2f (m=%d t=%d); LIA coupling broken", ratio, mBytes, tBytes)
	}
}

func TestChunkSchedulerFavoursFastSubflow(t *testing.T) {
	eng, n := testNet(t)
	cfg := testConfig()
	cfg.Subflows = 2
	var a, b int64
	startFlow(eng, n.Host(0), n.Host(4), 3000, 4<<20, cfg, func(f *Flow, _ sim.Time) {
		s := f.Conn.Subflows()
		a, b = s[0].Stats().BytesAcked, s[1].Stats().BytesAcked
	})
	eng.Run(sim.MaxTime)
	if a+b != 4<<20 {
		t.Fatalf("subflow bytes %d+%d ≠ total", a, b)
	}
	if a == 0 || b == 0 {
		t.Fatalf("scheduler starved a subflow: %d/%d", a, b)
	}
}

func TestRepeatedTransfersOnOneConnection(t *testing.T) {
	eng, n := testNet(t)
	c := Dial(eng, n.Host(0), n.Host(4), 4000, testConfig())
	defer c.Close()
	done := 0
	c.OnComplete = func(now sim.Time) {
		done++
		if done < 3 {
			c.Transfer(1<<20, now)
		}
	}
	c.Transfer(1<<20, 0)
	eng.Run(sim.MaxTime)
	if done != 3 {
		t.Fatalf("%d transfer completions, want 3", done)
	}
	if c.Acked() != 3<<20 {
		t.Fatalf("acked %d, want 3 MB", c.Acked())
	}
}

func TestTransferPanicsOnNonPositive(t *testing.T) {
	eng, n := testNet(t)
	c := Dial(eng, n.Host(0), n.Host(4), 5000, testConfig())
	defer c.Close()
	defer func() {
		if recover() == nil {
			t.Error("Transfer(0) did not panic")
		}
	}()
	c.Transfer(0, 0)
}

func TestIncastBurstinessExceedsTCP(t *testing.T) {
	// The §5.3 mechanism: many MPTCP senders to one receiver contend with
	// 8× as many subflows, overflowing the receiver's access-port buffer
	// more than plain TCP does.
	run := func(useMPTCP bool) uint64 {
		eng, n := testNet(t)
		cfg := testConfig()
		for i := 0; i < 3; i++ {
			src := n.Host(i)
			if useMPTCP {
				startFlow(eng, src, n.Host(4), uint64(9000+100*i), 2<<20, cfg, nil)
			} else {
				tcp.NewFlowPool().StartFlow(eng, src, n.Host(4), uint64(9000+100*i), 2<<20, cfg.TCP, nil)
			}
		}
		eng.Run(sim.MaxTime)
		return n.Leaves[1].Downlink(4).Drops
	}
	mptcpDrops := run(true)
	tcpDrops := run(false)
	if mptcpDrops < tcpDrops {
		t.Fatalf("MPTCP (%d drops) was gentler than TCP (%d) at the incast port", mptcpDrops, tcpDrops)
	}
}

// TestPoolDiscardsWrongShapeConnection pins the recycling rule: a pooled
// connection is reused only if its subflow count matches the request.
// Asked for another count, the pool discards it — it must never rebind a
// connection onto more or fewer subflows than it has — and the counters
// say so.
func TestPoolDiscardsWrongShapeConnection(t *testing.T) {
	eng, n := testNet(t)
	src, dst := n.Host(0), n.Host(4)
	pool := NewPool()
	steps := []struct {
		subflows         int
		wantSame         bool // reuses the previous step's connection
		allocs, recycled uint64
	}{
		{subflows: 4, allocs: 1, recycled: 0},
		{subflows: 2, allocs: 2, recycled: 0}, // four-subflow one discarded
		{subflows: 2, wantSame: true, allocs: 2, recycled: 1},
		{subflows: 4, allocs: 3, recycled: 1}, // two-subflow one discarded
		{subflows: 4, wantSame: true, allocs: 3, recycled: 2},
	}
	var prev *Connection
	for i, st := range steps {
		cfg := testConfig()
		cfg.Subflows = st.subflows
		var c *Connection
		pool.StartFlow(eng, src, dst, uint64(100+16*i), 50_000, cfg, func(f *Flow, _ sim.Time) { c = f.Conn })
		eng.Run(sim.MaxTime)
		if c == nil {
			t.Fatalf("step %d: flow did not complete", i)
		}
		if (c == prev) != st.wantSame {
			t.Errorf("step %d: reused previous connection = %v, want %v", i, c == prev, st.wantSame)
		}
		if len(c.senders) != st.subflows || len(c.receivers) != st.subflows {
			t.Errorf("step %d: connection has %d senders and %d receivers, want %d each",
				i, len(c.senders), len(c.receivers), st.subflows)
		}
		if pool.ConnAllocs != st.allocs || pool.ConnRecycled != st.recycled {
			t.Errorf("step %d: ConnAllocs %d ConnRecycled %d, want %d and %d",
				i, pool.ConnAllocs, pool.ConnRecycled, st.allocs, st.recycled)
		}
		prev = c
	}
}
