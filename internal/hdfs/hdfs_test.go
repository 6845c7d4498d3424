package hdfs

import (
	"testing"

	"conga/internal/core"
	"conga/internal/fabric"
	"conga/internal/sim"
	"conga/internal/stats"
	"conga/internal/tcp"
)

func testNet(t testing.TB, scheme fabric.Scheme) (*sim.Engine, *fabric.Network) {
	t.Helper()
	eng := sim.New()
	p := core.DefaultParams()
	p.FlowletTableSize = 2048
	n := fabric.MustNetwork(eng, fabric.Config{
		NumLeaves: 2, NumSpines: 2, HostsPerLeaf: 4, LinksPerSpine: 1,
		AccessRateBps: 1e9, FabricRateBps: 2e9,
		Scheme: scheme, Params: p, Seed: 13,
	})
	return eng, n
}

func testCfg() Config {
	c := tcp.DefaultConfig()
	c.MinRTO = 10 * sim.Millisecond
	c.InitRTO = 50 * sim.Millisecond
	return Config{
		Writers:        8,
		BytesPerWriter: 2 << 20,
		BlockBytes:     512 << 10,
		DiskBps:        4e8, // 50 MB/s
		TCP:            c,
		Seed:           1,
	}
}

func TestConfigValidate(t *testing.T) {
	if err := testCfg().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Writers = 0 },
		func(c *Config) { c.BytesPerWriter = 0 },
		func(c *Config) { c.BlockBytes = 0 },
		func(c *Config) { c.DiskBps = 0 },
		func(c *Config) { c.TCP.MSS = 0 },
	}
	for i, mutate := range bad {
		c := testCfg()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestJobCompletes(t *testing.T) {
	eng, n := testNet(t, fabric.SchemeCONGA)
	finished := false
	res, err := Run(eng, n, testCfg(), func(r *Result, now sim.Time) { finished = true })
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(sim.MaxTime)
	if !finished {
		t.Fatal("job never finished")
	}
	if res.CompletionTime <= 0 {
		t.Fatal("no completion time recorded")
	}
	// 8 writers × 2 MB / 512 KB blocks = 32 blocks; 2 replica transfers
	// each.
	if res.Blocks != 32 {
		t.Fatalf("%d blocks, want 32", res.Blocks)
	}
	if res.ReplicaBytes != 2*8*(2<<20) {
		t.Fatalf("replica bytes %d", res.ReplicaBytes)
	}
	for w, wt := range res.WriterTimes {
		if wt <= 0 || wt > res.CompletionTime {
			t.Fatalf("writer %d finish time %v outside job window", w, wt)
		}
	}
}

// TestDiskBoundFloor: with a slow disk, job time is bounded below by the
// serial disk time of one writer's share.
func TestDiskBoundFloor(t *testing.T) {
	eng, n := testNet(t, fabric.SchemeECMP)
	cfg := testCfg()
	cfg.DiskBps = 1e8 // 12.5 MB/s → 2 MB takes ≥ 160 ms on disk alone
	res, err := Run(eng, n, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(sim.MaxTime)
	minDisk := sim.Time(float64(cfg.BytesPerWriter) * 8 / cfg.DiskBps * float64(sim.Second))
	if res.CompletionTime < minDisk {
		t.Fatalf("job finished in %v, below the disk floor %v", res.CompletionTime, minDisk)
	}
}

// TestReplicaPlacementCrossesRacks: every block's first replica transfer
// must cross the fabric (off-rack placement), which is what couples the
// benchmark to fabric load balancing.
func TestReplicaPlacementCrossesRacks(t *testing.T) {
	eng, n := testNet(t, fabric.SchemeECMP)
	_, err := Run(eng, n, testCfg(), nil)
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(sim.MaxTime)
	var fabricBytes uint64
	for _, l := range n.FabricLinks() {
		fabricBytes += l.TxBytes()
	}
	if fabricBytes == 0 {
		t.Fatal("no replication traffic crossed the fabric")
	}
}

func TestTooManyWritersRejected(t *testing.T) {
	eng, n := testNet(t, fabric.SchemeECMP)
	cfg := testCfg()
	cfg.Writers = 100
	if _, err := Run(eng, n, cfg, nil); err == nil {
		t.Fatal("100 writers on 8 hosts accepted")
	}
}

func TestDeterministicBySeed(t *testing.T) {
	run := func() sim.Time {
		eng, n := testNet(t, fabric.SchemeCONGA)
		res, err := Run(eng, n, testCfg(), nil)
		if err != nil {
			t.Fatal(err)
		}
		eng.Run(sim.MaxTime)
		return res.CompletionTime
	}
	if run() != run() {
		t.Fatal("same seed, different completion time")
	}
}

// TestFailureHurtsECMPMoreThanCONGA is Figure 14's claim at small scale:
// with a degraded fabric and the job's replication traffic, CONGA's job
// time degrades less than ECMP's. A seed's degradation is within a few per
// cent of 1 and moves with the job's placement draw, so the claim is judged
// on the paired mean over ten seeds.
func TestFailureHurtsECMPMoreThanCONGA(t *testing.T) {
	run := func(scheme fabric.Scheme, fail bool, seed uint64) sim.Time {
		eng, n := testNet(t, scheme)
		if fail {
			n.FailLink(0, 1, 0)
		}
		cfg := testCfg()
		cfg.DiskBps = 2e9 // generous disks so the network is the binding constraint
		cfg.Seed = seed
		res, err := Run(eng, n, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		eng.Run(sim.MaxTime)
		return res.CompletionTime
	}
	degradation := func(scheme fabric.Scheme, seed uint64) float64 {
		return float64(run(scheme, true, seed)) / float64(run(scheme, false, seed))
	}
	var deg stats.PairedSample // A = ECMP, B = CONGA, per seed
	for seed := uint64(1); seed <= 10; seed++ {
		e, c := degradation(fabric.SchemeECMP, seed), degradation(fabric.SchemeCONGA, seed)
		t.Logf("seed %2d: degradation ECMP %.3f, CONGA %.3f", seed, e, c)
		deg.Add(e, c)
	}
	if deg.MeanRatio() > 1.05 {
		t.Fatalf("CONGA degraded more than ECMP under failure: mean %.3f vs %.3f over %d seeds",
			deg.MeanB(), deg.MeanA(), deg.N())
	}
}
