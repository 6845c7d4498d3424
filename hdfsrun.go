package conga

import (
	"fmt"
	"time"

	"conga/internal/fabric"
	"conga/internal/hdfs"
	"conga/internal/sim"
	"conga/internal/workload"
)

// HDFSConfig describes a Figure 14 trial: a TestDFSIO-like replicated
// write job with background enterprise traffic.
type HDFSConfig struct {
	Topology  Topology
	Scheme    Scheme
	Transport TransportConfig

	// Writers, BytesPerWriter and BlockBytes size the job (scaled down
	// from the paper's 63 writers × ~16 GB).
	Writers        int
	BytesPerWriter int64
	BlockBytes     int64
	// DiskMBps is the per-node disk write rate.
	DiskMBps float64

	// BackgroundLoad adds enterprise-workload traffic at this fraction of
	// bisection bandwidth (the paper's setup, §5.4).
	BackgroundLoad float64

	// Timeout bounds the trial in simulated time.
	Timeout time.Duration

	// Telemetry, when non-nil, enables the observability subsystem (see
	// FCTConfig.Telemetry); the registry returns in HDFSResult.Telemetry.
	Telemetry *TelemetryOptions

	// Check audits the trial as FCTConfig.Check does: flowlet tables and
	// link queues at every sweep, each completed background flow's
	// delivered bytes, and, when the run drains, no packet left. RunHDFS
	// then returns an error naming the first failure.
	Check bool

	Seed uint64
}

func (c HDFSConfig) withDefaults() HDFSConfig {
	c.Topology = c.Topology.withDefaults()
	c.Transport = c.Transport.withDefaults()
	if c.Writers == 0 {
		c.Writers = c.Topology.Leaves*c.Topology.HostsPerLeaf - 1
	}
	if c.BytesPerWriter == 0 {
		c.BytesPerWriter = 8 << 20
	}
	if c.BlockBytes == 0 {
		c.BlockBytes = 1 << 20
	}
	if c.DiskMBps == 0 {
		c.DiskMBps = 100
	}
	if c.Timeout == 0 {
		c.Timeout = 30 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// HDFSResult reports one trial.
type HDFSResult struct {
	Scheme string
	// JobCompletion is the TestDFSIO job completion time (Figure 14's
	// y-axis).
	JobCompletion time.Duration
	// Completed reports whether the job finished within Timeout.
	Completed bool
	// Blocks and ReplicaBytes describe the work done.
	Blocks       int
	ReplicaBytes int64
	// BackgroundFlows counts background transfers generated;
	// BackgroundCompleted how many finished before the engine stopped.
	BackgroundFlows     int
	BackgroundCompleted int
	// Events counts executed simulator events; Wall the real time the run
	// cost (events/sec reporting). Wall measures the environment, not the
	// simulation: determinism comparisons must zero both first.
	Events uint64
	Wall   time.Duration

	// Telemetry is the run's populated registry when requested.
	Telemetry *TelemetryRegistry
}

// RunHDFS executes one Figure 14 trial.
func RunHDFS(cfg HDFSConfig) (*HDFSResult, error) {
	start := time.Now()
	res, err := runHDFS(cfg)
	if res != nil {
		res.Wall = time.Since(start)
	}
	return res, err
}

func runHDFS(cfg HDFSConfig) (*HDFSResult, error) {
	cfg = cfg.withDefaults()
	switch {
	case cfg.BackgroundLoad < 0:
		return nil, fmt.Errorf("conga: BackgroundLoad %v must not be negative (0 means no background traffic)", cfg.BackgroundLoad)
	case cfg.Timeout < 0:
		return nil, fmt.Errorf("conga: Timeout %v must not be negative (0 means the default, 30s)", cfg.Timeout)
	}
	r, err := newRun(cfg.Topology, cfg.Scheme, nil, cfg.Transport, nil, cfg.Seed, cfg.Telemetry, 1)
	if err != nil {
		return nil, err
	}
	// One engine and one set of pools, shared by the background workload
	// and the HDFS replication pipeline below so every flow recycles
	// through the same free lists.
	eng, net := r.doms[0].eng, r.net
	if cfg.Check {
		r.enableCheck()
	}

	// Background enterprise traffic for the whole trial window. The
	// completion callback runs after a flow's endpoints close and schedules
	// nothing, so attaching it does not change the simulation.
	bgDone := 0
	var gen *workload.Generator
	if cfg.BackgroundLoad > 0 {
		r.onFlowDone(func(int, uint64, int64, sim.Time, uint64, uint64) { bgDone++ })
		starter := func(src, dst *fabric.Host, id uint64, size int64) {
			r.start(0, arrival{src: src.ID, dst: dst.ID, flowID: id, size: size})
		}
		gen, err = workload.NewGenerator(eng, net, workload.GenConfig{
			Load:          cfg.BackgroundLoad,
			Dist:          workload.Enterprise(),
			Duration:      sim.Duration(cfg.Timeout),
			InterLeafOnly: true,
			Stride:        uint64(cfg.Transport.Subflows),
			Seed:          cfg.Seed + 99,
		}, starter)
		if err != nil {
			return nil, err
		}
		gen.Start()
	}

	// The job itself replicates with TCP regardless of the background
	// transport, as HDFS does.
	jobRes, err := hdfs.Run(eng, net, hdfs.Config{
		Writers:        cfg.Writers,
		BytesPerWriter: cfg.BytesPerWriter,
		BlockBytes:     cfg.BlockBytes,
		DiskBps:        cfg.DiskMBps * 8e6,
		TCP:            r.tcpCfg,
		Pool:           r.doms[0].pool,
		Seed:           cfg.Seed,
	}, func(*hdfs.Result, sim.Time) {
		// Stop promptly once the job completes; lingering background
		// flows don't affect the measurement.
		eng.Stop()
	})
	if err != nil {
		return nil, err
	}

	r.exec(sim.Duration(cfg.Timeout))
	if cfg.Check {
		if err := r.audit(); err != nil {
			return nil, err
		}
	}

	res := &HDFSResult{
		Scheme:       SchemeName(cfg.Scheme),
		Blocks:       jobRes.Blocks,
		ReplicaBytes: jobRes.ReplicaBytes,
		Events:       r.events(),
	}
	if gen != nil {
		res.BackgroundFlows = gen.Generated
		res.BackgroundCompleted = bgDone
	}
	if jobRes.CompletionTime > 0 {
		res.Completed = true
		res.JobCompletion = time.Duration(jobRes.CompletionTime)
	} else {
		res.JobCompletion = cfg.Timeout
	}
	if res.Telemetry, err = r.finish(); err != nil {
		return nil, err
	}
	return res, nil
}
