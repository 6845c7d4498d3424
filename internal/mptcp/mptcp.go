// Package mptcp models Multipath TCP as evaluated in the paper (§5): each
// connection opens N subflows (the paper follows Raiciu et al. and uses 8),
// each with its own 5-tuple so ECMP hashes them onto different paths, and
// couples their congestion-avoidance growth with the Linked Increases
// Algorithm (LIA, RFC 6356). Loss recovery, RTO, and slow start are
// inherited per-subflow from internal/tcp.
//
// Data is scheduled onto subflows in chunks, on demand, so faster subflows
// carry more bytes. Like the MPTCP versions of the paper's era, there is no
// opportunistic reinjection: a chunk claimed by a stalled subflow waits for
// that subflow's timer — one of the behaviours behind MPTCP's Incast
// fragility that the paper measures.
package mptcp

import (
	"fmt"

	"conga/internal/fabric"
	"conga/internal/sim"
	"conga/internal/tcp"
)

// Config parameterizes an MPTCP connection.
type Config struct {
	// Subflows is the number of subflows per connection; the paper uses 8.
	Subflows int
	// TCP configures every subflow.
	TCP tcp.Config
	// ChunkSegments is the scheduler granularity in MSS units.
	ChunkSegments int
}

// Validate reports the first invalid field.
func (c Config) Validate() error {
	if c.Subflows < 1 {
		return fmt.Errorf("mptcp: Subflows %d must be ≥ 1", c.Subflows)
	}
	if c.ChunkSegments < 1 {
		return fmt.Errorf("mptcp: ChunkSegments %d must be ≥ 1", c.ChunkSegments)
	}
	return c.TCP.Validate()
}

// Connection is an MPTCP connection transferring one byte stream from a
// source host to a destination host.
type Connection struct {
	eng *sim.Engine
	cfg Config

	senders   []*tcp.Sender
	receivers []*tcp.Receiver

	total     int64 // bytes requested by the application
	claimed   int64 // bytes handed to subflows
	ackedSubs int64 // bytes acked across subflows

	// OnComplete fires when every queued byte has been acknowledged.
	OnComplete func(now sim.Time)

	Started sim.Time
	closed  bool
	inPool  bool // currently parked on a Pool free list
}

// Dial creates an MPTCP connection from src to dst. flowIDBase seeds the
// subflow flow IDs (flowIDBase+i); keep bases Subflows apart.
func Dial(eng *sim.Engine, src, dst *fabric.Host, flowIDBase uint64, cfg Config) *Connection {
	return dial(eng, src, dst, flowIDBase, cfg)
}

// dial builds a connection that allocates and owns one receiver per
// subflow on dst (per subflow the destination port first, then the
// sender's source port); Close unbinds them.
func dial(eng *sim.Engine, src, dst *fabric.Host, flowIDBase uint64, cfg Config) *Connection {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &Connection{eng: eng, cfg: cfg, Started: eng.Now()}
	for i := 0; i < cfg.Subflows; i++ {
		port := dst.AllocPort()
		c.receivers = append(c.receivers, tcp.NewReceiver(dst, port))
		s := tcp.NewSender(eng, src, flowIDBase+uint64(i), dst.ID, port, cfg.TCP)
		idx := i
		// These closures capture only (c, idx), both of which survive pool
		// recycling unchanged, so they are bound once per Connection object
		// for its whole pooled lifetime.
		s.CAIncrease = func(acked int) { c.liaIncrease(idx, acked) }
		s.OnAcked = func(bytes int64, now sim.Time) { c.onSubflowAcked(idx, bytes, now) }
		c.senders = append(c.senders, s)
	}
	return c
}

// rebind resets a closed, recycled connection onto a new transfer: every
// subflow endpoint is re-addressed and protocol-reset through the tcp
// Rebind path (which preserves the LIA/scheduler callbacks bound at
// construction), and the scheduler state is zeroed. Addressing and port
// allocation order match dial exactly.
func (c *Connection) rebind(eng *sim.Engine, src, dst *fabric.Host, flowIDBase uint64, cfg Config) {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c.eng = eng
	c.cfg = cfg
	c.total, c.claimed, c.ackedSubs = 0, 0, 0
	c.OnComplete = nil
	c.Started = eng.Now()
	c.closed = false
	for i, s := range c.senders {
		port := dst.AllocPort()
		c.receivers[i].Rebind(dst, port)
		s.Rebind(eng, src, flowIDBase+uint64(i), dst.ID, port, cfg.TCP)
	}
}

// Close tears down all subflows.
func (c *Connection) Close() {
	if c.closed {
		return
	}
	c.closed = true
	for _, s := range c.senders {
		s.Close()
	}
	for _, r := range c.receivers {
		r.Close()
	}
}

// Subflows returns the subflow senders, for inspection in tests and stats.
func (c *Connection) Subflows() []*tcp.Sender { return c.senders }

// Acked returns the total bytes acknowledged across subflows.
func (c *Connection) Acked() int64 { return c.ackedSubs }

// Transfer queues n more bytes onto the connection.
func (c *Connection) Transfer(n int64, now sim.Time) {
	if n <= 0 {
		panic(fmt.Sprintf("mptcp: Transfer(%d)", n))
	}
	c.total += n
	// Prime every subflow with an initial chunk; later chunks are claimed
	// as ACKs open windows.
	for i := range c.senders {
		c.refill(i, now)
	}
}

func (c *Connection) chunk() int64 {
	return int64(c.cfg.ChunkSegments * c.cfg.TCP.MSS)
}

// refill hands subflow i more data if it is running dry and unclaimed bytes
// remain. "Running dry" means its queued-unsent backlog is below one chunk:
// enough to keep the pipe busy without stranding large amounts of data on a
// subflow that later stalls.
func (c *Connection) refill(i int, now sim.Time) {
	s := c.senders[i]
	if c.claimed >= c.total || s.QueuedUnsent() >= c.chunk() {
		return
	}
	n := c.chunk()
	if rem := c.total - c.claimed; rem < n {
		n = rem
	}
	c.claimed += n
	s.Queue(n, now)
}

func (c *Connection) onSubflowAcked(i int, bytes int64, now sim.Time) {
	c.ackedSubs += bytes
	c.refill(i, now)
	if c.ackedSubs >= c.total && c.claimed >= c.total && c.OnComplete != nil {
		c.OnComplete(now)
	}
}

// liaIncrease implements RFC 6356's coupled increase for subflow i: per
// ACK, w_i grows by min(α·acked·MSS/Σw, acked·MSS/w_i), where
//
//	α = Σw · max_j(w_j/rtt_j²) / (Σ_j w_j/rtt_j)².
//
// α makes the aggregate no more aggressive than one TCP on the best path;
// the min() caps a subflow at its standalone Reno growth.
func (c *Connection) liaIncrease(i int, acked int) {
	s := c.senders[i]
	mss := float64(c.cfg.TCP.MSS)

	var totalW, denom, maxTerm float64
	for _, sf := range c.senders {
		w := sf.Cwnd()
		rtt := sf.SRTT().Seconds()
		if rtt <= 0 {
			// No sample yet: this subflow has not carried traffic, so
			// it contributes (almost) nothing to the aggregate.
			rtt = 1.0 // 1 s sentinel keeps its weight negligible
		}
		totalW += w
		denom += w / rtt
		if term := w / (rtt * rtt); term > maxTerm {
			maxTerm = term
		}
	}
	if totalW <= 0 || denom <= 0 {
		s.AddCwnd(mss * mss / s.Cwnd())
		return
	}
	alpha := totalW * maxTerm / (denom * denom)
	coupled := alpha * float64(acked) * mss / totalW
	solo := float64(acked) * mss / s.Cwnd()
	if coupled > solo {
		coupled = solo
	}
	s.AddCwnd(coupled)
}

// Flow mirrors tcp.Flow for MPTCP: transfer size bytes and report the
// completion time.
type Flow struct {
	Conn    *Connection
	Size    int64
	Started sim.Time

	pool         *Pool
	onDone       func(f *Flow, now sim.Time)
	onCompleteFn func(now sim.Time) // finish, bound once per Flow object
	inPool       bool
}

// finish is the connection's OnComplete: tear the subflows down (ports
// recycle first, as in tcp.Flow), run the caller's callback, then return
// the flow and connection to the pool.
func (f *Flow) finish(now sim.Time) {
	f.Conn.Close()
	if f.onDone != nil {
		f.onDone(f, now)
	}
	f.pool.putFlow(f)
}

// FCT returns the flow completion time given the completion timestamp.
func (f *Flow) FCT(done sim.Time) sim.Time { return done - f.Started }

// Pool recycles Connections (with their subflow senders and receivers
// attached) and Flows within one engine, the MPTCP
// counterpart of tcp.FlowPool. A connection's per-subflow LIA and scheduler
// closures are bound once at construction and survive recycling — the
// whole point of keeping endpoints attached to their connection — while
// the tcp Rebind path fully resets per-transfer protocol state. Every flow
// start goes through a pool: a harness keeps one per engine.
type Pool struct {
	conns []*Connection
	flows []*Flow

	// Allocs counts pool misses; Recycled counts connections reused.
	ConnAllocs   uint64
	ConnRecycled uint64
}

// NewPool returns an empty pool for one engine.
func NewPool() *Pool { return &Pool{} }

// dial is mptcp's dial drawing from the pool. A recycled connection is
// reused only if its subflow count matches cfg; anything else is discarded
// — the configuration changed mid-run, which real harnesses never do.
func (p *Pool) dial(eng *sim.Engine, src, dst *fabric.Host, flowIDBase uint64, cfg Config) *Connection {
	for n := len(p.conns); n > 0; n = len(p.conns) {
		c := p.conns[n-1]
		p.conns[n-1] = nil
		p.conns = p.conns[:n-1]
		c.inPool = false
		if len(c.senders) != cfg.Subflows {
			continue
		}
		p.ConnRecycled++
		c.rebind(eng, src, dst, flowIDBase, cfg)
		return c
	}
	p.ConnAllocs++
	return dial(eng, src, dst, flowIDBase, cfg)
}

// PutConn releases a closed connection to the pool. Connections that are
// still open or already pooled are left alone.
func (p *Pool) PutConn(c *Connection) {
	if c == nil || !c.closed || c.inPool {
		return
	}
	c.OnComplete = nil
	c.inPool = true
	p.conns = append(p.conns, c)
}

// CheckReturned reports a pool whose free list does not hold exactly as
// many connections as the pool allocated. A drained run, whose every flow
// has completed, passes.
func (p *Pool) CheckReturned() error {
	if uint64(len(p.conns)) != p.ConnAllocs {
		return fmt.Errorf("%d of the %d connections it allocated are back on its free list", len(p.conns), p.ConnAllocs)
	}
	return nil
}

// StartFlow begins an MPTCP transfer of size bytes from src to dst,
// drawing the Flow and its Connection from the pool. The flow returns to
// the pool right after onDone, so the callback must not retain the *Flow or
// its connection.
func (p *Pool) StartFlow(eng *sim.Engine, src, dst *fabric.Host, flowIDBase uint64, size int64,
	cfg Config, onDone func(f *Flow, now sim.Time)) *Flow {
	if size <= 0 {
		size = 1
	}
	f := p.getFlow()
	f.pool = p
	f.onDone = onDone
	f.Conn = p.dial(eng, src, dst, flowIDBase, cfg)
	f.Size = size
	f.Started = eng.Now()
	f.Conn.OnComplete = f.onCompleteFn
	f.Conn.Transfer(size, eng.Now())
	return f
}

func (p *Pool) getFlow() *Flow {
	if n := len(p.flows); n > 0 {
		f := p.flows[n-1]
		p.flows[n-1] = nil
		p.flows = p.flows[:n-1]
		f.inPool = false
		return f
	}
	f := &Flow{}
	f.onCompleteFn = f.finish
	return f
}

func (p *Pool) putFlow(f *Flow) {
	if f.inPool {
		return
	}
	p.PutConn(f.Conn)
	f.Conn = nil
	f.onDone = nil
	f.inPool = true
	p.flows = append(p.flows, f)
}
