package conga

import (
	"fmt"
	"time"

	"conga/internal/mptcp"
	"conga/internal/sim"
	"conga/internal/stats"
	"conga/internal/tcp"
)

// IncastConfig describes the §5.3 Incast micro-benchmark: one client
// repeatedly requests a file striped across N servers; all servers respond
// simultaneously, colliding at the client's access link.
type IncastConfig struct {
	Topology  Topology
	Scheme    Scheme
	Transport TransportConfig

	// Fanout is N, the number of servers striping the response.
	Fanout int
	// RequestBytes is the total response size per request (paper: 10 MB).
	RequestBytes int64
	// Rounds is how many synchronized requests to issue back-to-back.
	Rounds int
	// Timeout bounds the whole run of simulated time.
	Timeout time.Duration

	// Telemetry, when non-nil, enables the observability subsystem (see
	// FCTConfig.Telemetry); the registry returns in IncastResult.Telemetry.
	Telemetry *TelemetryOptions

	// Check audits the run as FCTConfig.Check does — flowlet tables and
	// link queues at every sweep, and, when the run drains, no packet left
	// — and makes RunIncast return an error naming the first failure. The
	// fanout's synchronized burst builds the deepest access-port queue of
	// any harness.
	Check bool

	Seed uint64
}

func (c IncastConfig) withDefaults() IncastConfig {
	c.Topology = c.Topology.withDefaults()
	c.Transport = c.Transport.withDefaults()
	if c.Fanout == 0 {
		c.Fanout = 16
	}
	if c.RequestBytes == 0 {
		c.RequestBytes = 10 << 20
	}
	if c.Rounds == 0 {
		c.Rounds = 5
	}
	if c.Timeout == 0 {
		c.Timeout = 20 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// IncastResult reports the effective client goodput.
type IncastResult struct {
	Fanout int
	// GoodputFraction is the achieved goodput over the client access-link
	// rate — the y-axis of Figure 13.
	GoodputFraction float64
	// CompletedRounds counts requests fully answered within Timeout.
	CompletedRounds int
	// TotalTime is the simulated time to finish all rounds.
	TotalTime time.Duration
	// Drops counts losses at the client's access port.
	Drops uint64
	// Timeouts aggregates sender RTOs, the Incast signature.
	Timeouts uint64
	// RoundTimeMean / RoundTimeP99 summarize per-round completion times.
	RoundTimeMean time.Duration
	RoundTimeP99  time.Duration
	// Events counts executed simulator events; Wall the real time the run
	// cost (events/sec reporting). Wall measures the environment, not the
	// simulation: determinism comparisons must zero both first.
	Events uint64
	Wall   time.Duration

	// Telemetry is the run's populated registry when requested.
	Telemetry *TelemetryRegistry
}

// RunIncast executes the Incast micro-benchmark and returns the effective
// throughput. The client is host 0; servers are the next Fanout hosts
// (spread across both racks, as in the testbed where all 63 other servers
// respond).
func RunIncast(cfg IncastConfig) (*IncastResult, error) {
	start := time.Now()
	res, err := runIncast(cfg)
	if res != nil {
		res.Wall = time.Since(start)
	}
	return res, err
}

func runIncast(cfg IncastConfig) (*IncastResult, error) {
	cfg = cfg.withDefaults()
	switch {
	case cfg.Fanout < 0:
		return nil, fmt.Errorf("conga: Fanout %d must not be negative (0 means the default, 16)", cfg.Fanout)
	case cfg.RequestBytes < 0:
		return nil, fmt.Errorf("conga: RequestBytes %d must not be negative (0 means the default, 10 MB)", cfg.RequestBytes)
	case cfg.Rounds < 0:
		return nil, fmt.Errorf("conga: Rounds %d must not be negative (0 means the default, 5)", cfg.Rounds)
	case cfg.Timeout < 0:
		return nil, fmt.Errorf("conga: Timeout %v must not be negative (0 means the default, 20s)", cfg.Timeout)
	}
	totalHosts := cfg.Topology.Leaves * cfg.Topology.HostsPerLeaf
	if cfg.Fanout >= totalHosts {
		return nil, fmt.Errorf("conga: fanout %d needs more than %d hosts", cfg.Fanout, totalHosts)
	}
	r, err := newRun(cfg.Topology, cfg.Scheme, nil, cfg.Transport, cfg.Seed, cfg.Telemetry, 1)
	if err != nil {
		return nil, err
	}
	eng, net, pool := r.doms[0].eng, r.net, r.doms[0].pool
	if cfg.Check {
		r.enableCheck()
	}

	client := net.Host(0)
	perServer := cfg.RequestBytes / int64(cfg.Fanout)
	if perServer < 1 {
		perServer = 1
	}

	// Persistent connections: one sender per server, created up front, so
	// RTT estimators are warm when the synchronized burst hits — matching
	// the benchmark applications the paper cites. They live for the whole
	// run and go back to the per-engine pool after it; the rounds
	// themselves allocate nothing.
	type server struct {
		tcpSend *tcp.Sender
		tcpRecv *tcp.Receiver
		mpConn  *mptcp.Connection
	}
	servers := make([]server, cfg.Fanout)
	remaining := 0
	var roundStart sim.Time
	var roundsDone int
	var busyTime sim.Time
	var startRound func(now sim.Time)

	var roundTimes stats.Sample
	roundTimes.Reserve(cfg.Rounds)

	onServerDone := func(now sim.Time) {
		remaining--
		if remaining > 0 {
			return
		}
		busyTime += now - roundStart
		roundTimes.Add((now - roundStart).Seconds())
		roundsDone++
		if roundsDone < cfg.Rounds {
			startRound(now)
		}
	}

	for i := 0; i < cfg.Fanout; i++ {
		srcHost := net.Host(i + 1)
		switch r.transport {
		case TransportMPTCP:
			// The connection allocates and owns its client-side receivers.
			conn := mptcp.Dial(eng, srcHost, client, uint64(1000+i*16), r.mpCfg)
			conn.OnComplete = onServerDone
			servers[i].mpConn = conn
		default:
			port := client.AllocPort()
			servers[i].tcpRecv = pool.NewReceiver(eng, client, port)
			s := pool.NewSender(eng, srcHost, uint64(1000+i*16), client.ID, port, r.tcpCfg)
			s.OnAllAcked = onServerDone
			servers[i].tcpSend = s
		}
	}

	startRound = func(now sim.Time) {
		roundStart = now
		remaining = cfg.Fanout
		for _, sv := range servers {
			if sv.mpConn != nil {
				sv.mpConn.Transfer(perServer, now)
			} else {
				sv.tcpSend.Queue(perServer, now)
			}
		}
	}
	eng.At(0, func(now sim.Time) { startRound(now) })
	endAt := r.exec(sim.Duration(cfg.Timeout))

	var rtos uint64
	for _, sv := range servers {
		if sv.mpConn != nil {
			for _, s := range sv.mpConn.Subflows() {
				rtos += s.Stats().Timeouts
			}
		} else {
			rtos += sv.tcpSend.Stats().Timeouts
			sv.tcpSend.Close()
			sv.tcpRecv.Close()
			pool.PutSender(sv.tcpSend)
			pool.PutReceiver(sv.tcpRecv)
		}
	}
	if cfg.Check {
		if err := r.audit(); err != nil {
			return nil, err
		}
	}

	res := &IncastResult{
		Fanout:          cfg.Fanout,
		CompletedRounds: roundsDone,
		TotalTime:       time.Duration(endAt),
		Events:          r.events(),
		Drops:           net.Leaves[0].Downlink(client.ID).Drops,
		Timeouts:        rtos,
		RoundTimeMean:   time.Duration(roundTimes.Mean() * 1e9),
		RoundTimeP99:    time.Duration(roundTimes.Quantile(0.99) * 1e9),
	}
	if roundsDone > 0 && busyTime > 0 {
		bytes := float64(perServer) * float64(cfg.Fanout) * float64(roundsDone)
		goodput := bytes * 8 / busyTime.Seconds()
		res.GoodputFraction = goodput / (cfg.Topology.AccessGbps * 1e9)
	}
	if res.Telemetry, err = r.finish(); err != nil {
		return nil, err
	}
	return res, nil
}
