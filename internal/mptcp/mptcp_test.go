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

func testConfig() Config {
	c := DefaultConfig()
	c.TCP.MinRTO = 10 * sim.Millisecond
	c.TCP.InitRTO = 50 * sim.Millisecond
	return c
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	c := DefaultConfig()
	c.Subflows = 0
	if err := c.Validate(); err == nil {
		t.Fatal("0 subflows accepted")
	}
	c = DefaultConfig()
	c.ChunkSegments = 0
	if err := c.Validate(); err == nil {
		t.Fatal("0 chunk segments accepted")
	}
}

func TestTransferCompletesExactly(t *testing.T) {
	eng, n := testNet(t)
	const size = 3<<20 + 12345
	var fct sim.Time
	f := StartFlow(eng, n.Host(0), n.Host(4), 100, size, testConfig(), func(fl *Flow, now sim.Time) {
		fct = fl.FCT(now)
	})
	eng.Run(sim.MaxTime)
	if fct == 0 {
		t.Fatal("transfer did not complete")
	}
	if got := f.Conn.Acked(); got != size {
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
	StartFlow(eng, n.Host(0), n.Host(4), 700, 8<<20, testConfig(), func(f *Flow, now sim.Time) {
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
	mf := StartFlow(eng, n.Host(0), n.Host(4), 1000, 1<<30, cfg, nil)
	tf := tcp.StartFlow(eng, n.Host(1), n.Host(4), 2000, 1<<30, cfg.TCP, nil)
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
	f := StartFlow(eng, n.Host(0), n.Host(4), 3000, 4<<20, cfg, nil)
	eng.Run(sim.MaxTime)
	s := f.Conn.Subflows()
	a := s[0].Stats().BytesAcked
	b := s[1].Stats().BytesAcked
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
				StartFlow(eng, src, n.Host(4), uint64(9000+100*i), 2<<20, cfg, nil)
			} else {
				tcp.StartFlow(eng, src, n.Host(4), uint64(9000+100*i), 2<<20, cfg.TCP, nil)
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
