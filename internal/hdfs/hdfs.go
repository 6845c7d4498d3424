// Package hdfs models the §5.4 TestDFSIO benchmark: a MapReduce job whose
// writer tasks store a large file into HDFS with 3-way replication, on a
// cluster whose fabric also carries background traffic. The paper measures
// the job completion time over 40 trials, with and without a failed fabric
// link (Figure 14).
//
// The model captures the benchmark's structure rather than Hadoop's code:
// each writer streams its share block by block; each block is written to
// the local disk and replicated in a pipeline to a random host in the
// other rack and then to a host in that host's rack (HDFS default
// placement); disks bound throughput (the paper notes the benchmark is
// disk-bound), and the network matters through the replication transfers
// sharing the fabric with background load.
package hdfs

import (
	"fmt"

	"conga/internal/fabric"
	"conga/internal/sim"
	"conga/internal/tcp"
)

// Config parameterizes one TestDFSIO-like job.
type Config struct {
	// Writers is the number of writer tasks (the paper uses one per
	// DataNode, 63).
	Writers int
	// BytesPerWriter is each writer's share of the file.
	BytesPerWriter int64
	// BlockBytes is the HDFS block size.
	BlockBytes int64
	// DiskBps caps each node's disk write rate.
	DiskBps float64
	// TCP configures the replication transfers.
	TCP tcp.Config
	// Pool starts the replication flows; the caller shares its per-engine
	// tcp.FlowPool. Run supplies a fresh one when it is nil.
	Pool *tcp.FlowPool
	// Seed drives replica placement.
	Seed uint64
}

// Validate reports the first invalid field.
func (c Config) Validate() error {
	switch {
	case c.Writers <= 0:
		return fmt.Errorf("hdfs: Writers %d must be positive", c.Writers)
	case c.BytesPerWriter <= 0:
		return fmt.Errorf("hdfs: BytesPerWriter %d must be positive", c.BytesPerWriter)
	case c.BlockBytes <= 0:
		return fmt.Errorf("hdfs: BlockBytes %d must be positive", c.BlockBytes)
	case c.DiskBps <= 0:
		return fmt.Errorf("hdfs: DiskBps %v must be positive", c.DiskBps)
	}
	return c.TCP.Validate()
}

// Result reports a completed job.
type Result struct {
	// CompletionTime is when the last writer finished (job completion).
	CompletionTime sim.Time
	// WriterTimes holds each writer's finish time.
	WriterTimes []sim.Time
	// Blocks is the total number of blocks written.
	Blocks int
	// ReplicaBytes is the total bytes shipped over the fabric for
	// replication.
	ReplicaBytes int64
}

// Run schedules the job on the network and returns after wiring the
// simulation; the result is valid once the engine has run to completion.
// done fires when the job finishes.
func Run(eng *sim.Engine, net *fabric.Network, cfg Config, done func(*Result, sim.Time)) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	hosts := len(net.Hosts)
	if cfg.Writers > hosts {
		return nil, fmt.Errorf("hdfs: %d writers exceed %d hosts", cfg.Writers, hosts)
	}
	pool := cfg.Pool
	if pool == nil {
		pool = tcp.NewFlowPool()
	}
	rng := sim.NewRand(cfg.Seed + 0xD15C)
	res := &Result{WriterTimes: make([]sim.Time, cfg.Writers)}
	remaining := cfg.Writers

	flowID := uint64(1 << 32) // keep clear of background-traffic IDs

	for w := 0; w < cfg.Writers; w++ {
		w := w
		writerHost := net.Host(w % hosts)
		var writeBlock func(left int64, now sim.Time)
		writeBlock = func(left int64, now sim.Time) {
			if left <= 0 {
				res.WriterTimes[w] = now
				remaining--
				if remaining == 0 {
					res.CompletionTime = now
					if done != nil {
						done(res, now)
					}
				}
				return
			}
			block := cfg.BlockBytes
			if left < block {
				block = left
			}
			res.Blocks++

			// Replica placement: DN2 in the other rack, DN3 in DN2's rack
			// (HDFS default: one off-rack, two in that rack).
			dn2 := pickHost(net, rng, func(h *fabric.Host) bool { return h.Leaf != writerHost.Leaf })
			dn3 := pickHost(net, rng, func(h *fabric.Host) bool { return h.Leaf == dn2.Leaf && h.ID != dn2.ID })
			if dn3 == nil {
				dn3 = dn2 // degenerate tiny topologies
			}

			diskDone := false
			netDone := false
			maybeNext := func(now sim.Time) {
				if diskDone && netDone {
					writeBlock(left-block, now)
				}
			}
			// Local disk write (all three replicas write disks; the
			// writer's own is the one that gates its pipeline).
			diskTime := sim.Time(float64(block) * 8 / cfg.DiskBps * float64(sim.Second))
			eng.At(now+diskTime, func(t sim.Time) {
				diskDone = true
				maybeNext(t)
			})
			// Replication pipeline: writer→DN2, then DN2→DN3.
			id1 := flowID
			flowID += 2
			res.ReplicaBytes += 2 * block
			// Pipeline stages draw from the shared pool; the outer flow's
			// objects are released only after its callback returns, so the
			// inner StartFlow can never reacquire them mid-frame.
			pool.StartFlow(eng, writerHost, dn2, id1, block, cfg.TCP, func(_ *tcp.Flow, t1 sim.Time) {
				pool.StartFlow(eng, dn2, dn3, id1+1, block, cfg.TCP, func(_ *tcp.Flow, t2 sim.Time) {
					netDone = true
					maybeNext(t2)
				})
			})
		}
		eng.At(0, func(now sim.Time) { writeBlock(cfg.BytesPerWriter, now) })
	}
	return res, nil
}

func pickHost(net *fabric.Network, rng *sim.Rand, ok func(*fabric.Host) bool) *fabric.Host {
	for tries := 0; tries < 1000; tries++ {
		h := net.Host(rng.Intn(len(net.Hosts)))
		if ok(h) {
			return h
		}
	}
	return nil
}
