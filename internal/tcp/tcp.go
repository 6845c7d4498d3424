// Package tcp implements a NewReno-style TCP data transfer over the fabric
// simulator: slow start and congestion avoidance that count acknowledged
// bytes (RFC 3465), fast retransmit/recovery on three duplicate ACKs, and an
// RFC 6298 retransmission timer with configurable minimum RTO (the knob the
// paper's Incast experiments turn).
//
// It substitutes for the Linux stack the paper drives through the Network
// Simulation Cradle. Connections are modelled post-handshake: a Receiver is
// bound to a port, a Sender streams bytes at it, and ACKs flow back on the
// reverse path through the same fabric (so they experience the same queues
// and carry CONGA feedback). The receiver ACKs as Linux does: at once in
// quick-ACK mode, for out-of-order, duplicate and short segments and for
// every second full segment, otherwise after a short delayed-ACK timer.
//
// The congestion-avoidance window growth is pluggable (Config.CAIncrease),
// which is how internal/mptcp couples subflows with LIA without forking the
// loss-recovery machinery.
package tcp

import (
	"fmt"

	"conga/internal/fabric"
	"conga/internal/sim"
	"conga/internal/telemetry"
)

// Config holds transport parameters. The zero value is not valid; use
// DefaultConfig.
type Config struct {
	// MSS is the maximum segment (payload) size. DefaultConfig derives it
	// from a 1500-byte MTU; the Incast experiments also use 9000.
	MSS int
	// MinRTO clamps the retransmission timer from below. Linux default is
	// 200 ms; Vasudevan et al. recommend 1 ms for Incast-heavy clusters.
	MinRTO sim.Time
	// InitRTO is the timer value before the first RTT sample (RFC 6298
	// says 1 s).
	InitRTO sim.Time
	// MaxCwnd caps the window in bytes (models the receive/socket buffer).
	MaxCwnd int
	// ReorderWindow, when positive, makes the sender reordering-resilient
	// (RACK-style): on reaching dupThresh duplicate ACKs it waits this
	// long before declaring loss, and stands down if the cumulative ACK
	// advances meanwhile. The paper's per-packet CONGA variant (§1,
	// Figure 1's "optimal, needs reordering-resilient TCP") requires
	// this; classic fast retransmit uses 0.
	ReorderWindow sim.Time
}

// Linux's initial window in segments, backoff cap and duplicate-ACK count
// that triggers fast retransmit: no experiment varies them.
const (
	initCwnd  = 10
	maxRTO    = 30 * sim.Second
	dupThresh = 3
)

// MTUToMSS converts an Ethernet MTU to the TCP payload size (IPv4 20 + TCP
// 20 bytes of headers).
func MTUToMSS(mtu int) int { return mtu - 40 }

// DefaultConfig returns Linux-like defaults for a 1500-byte MTU.
func DefaultConfig() Config {
	return Config{
		MSS:     MTUToMSS(1500),
		MinRTO:  200 * sim.Millisecond,
		InitRTO: sim.Second,
		MaxCwnd: 12 << 20, // 12 MB: enough for 10 Gbps × 10 ms
	}
}

// maxMSS is the TCP payload of the largest IPv4 datagram, 65,535 bytes.
const maxMSS = 65535 - 40

// Validate reports the first invalid field.
func (c Config) Validate() error {
	switch {
	case c.MSS <= 0:
		return fmt.Errorf("tcp: MSS %d must be positive", c.MSS)
	case c.MSS > maxMSS:
		return fmt.Errorf("tcp: MSS %d exceeds %d, the payload of the largest IPv4 datagram", c.MSS, maxMSS)
	case c.MinRTO <= 0:
		return fmt.Errorf("tcp: MinRTO %v must be positive", c.MinRTO)
	case c.MinRTO > maxRTO:
		return fmt.Errorf("tcp: MinRTO %v exceeds the %v backoff cap", c.MinRTO, maxRTO)
	case c.InitRTO <= 0:
		return fmt.Errorf("tcp: InitRTO %v must be positive", c.InitRTO)
	case c.MaxCwnd < c.MSS:
		return fmt.Errorf("tcp: MaxCwnd %d smaller than one MSS", c.MaxCwnd)
	case c.MaxCwnd >= 1<<31:
		// SACK blocks travel as 32-bit offsets above the ACK (see
		// Receiver.sendAck); the window bounds how far out they reach.
		return fmt.Errorf("tcp: MaxCwnd %d must be below 2³¹", c.MaxCwnd)
	}
	return nil
}

// Stats aggregates a sender's loss-recovery activity.
type Stats struct {
	SegmentsSent   uint64
	BytesSent      uint64
	FastRetx       uint64
	Timeouts       uint64
	RetxSegments   uint64
	DupAcksSeen    uint64
	RTTSamples     uint64
	LastSRTT       sim.Time
	BytesAcked     int64
	RecoveryEvents uint64
}

type senderState int

const (
	stateOpen senderState = iota
	stateRecovery
)

// Sender is the transmitting half of a connection. Create with NewSender,
// add data with Queue, and watch completion with OnAllAcked.
type Sender struct {
	eng  *sim.Engine
	host *fabric.Host
	cfg  Config

	flowID  uint64
	srcPort int
	dstHost int
	dstPort int
	lbHash  uint64 // precomputed fabric LB hash for outgoing segments

	// Sequence space (bytes).
	sndUna int64 // oldest unacknowledged
	sndNxt int64 // next to send
	sndMax int64 // one past the highest byte ever sent: a segment below it is a retransmit
	avail  int64 // total bytes queued by the application

	cwnd     float64
	ssthresh float64
	state    senderState
	recover  int64 // recovery point: sndNxt when loss was detected
	dupAcks  int
	// SACK scoreboard: disjoint sorted ranges in (sndUna, sndNxt) the
	// receiver has reported holding. retxMark is the high-water mark of
	// hole retransmissions in the current recovery episode.
	sacked   spanSet
	retxMark int64
	retxPipe int64 // retransmitted bytes not yet cumulatively acked

	// RTO state (RFC 6298). The retransmission timer is lazily re-armed:
	// ACKs only advance the deadline field, and a fire before the deadline
	// reschedules itself instead of timing out. With an ACK every segment
	// or two this turns a cancel+schedule pair per ACK into one field write
	// — the engine event exists only at the (rarely reached) fire times.
	srtt, rttvar sim.Time
	rto          sim.Time
	backoff      uint
	deadline     sim.Time // when the timeout should really fire
	timerAt      sim.Time // when the pending timer event fires (≤ deadline)
	timer        sim.EventHandle
	reorderTimer sim.EventHandle // deferred loss declaration (ReorderWindow)
	reorderArmed int64           // sndUna when the reorder timer was armed
	lastRetx     sim.Time        // Karn: suppress samples older than this
	onTimeoutFn  sim.Event       // bound once so arming the timer allocates nothing
	onReorderFn  sim.Event       // bound once so deferring loss allocates nothing

	// CAIncrease, when set, replaces the Reno additive increase during
	// congestion avoidance. It receives the freshly acknowledged byte
	// count and must adjust the window through AddCwnd.
	CAIncrease func(ackedBytes int)

	// OnAllAcked fires whenever every queued byte has been acknowledged.
	OnAllAcked func(now sim.Time)
	// OnAcked fires on every cumulative ACK advance with the newly
	// acknowledged byte count.
	OnAcked func(bytes int64, now sim.Time)

	stats Stats
	// tel mirrors loss-recovery counters into the engine-wide telemetry
	// registry; nil when telemetry is off (every bump is one nil check).
	tel *telemetry.TCPCounters
	// trace is the engine-wide packet trace; its nil-safe TriggerRTO fires
	// the flight-recorder stop on the first timeout when armed.
	trace  *telemetry.PacketTrace
	freed  bool
	inPool bool // currently parked on a FlowPool free list
}

// NewSender creates a sender on host addressed at (dstHost, dstPort) and
// binds a fresh local port for its ACKs. flowID must be unique fabric-wide;
// it seeds ECMP and flowlet hashing.
func NewSender(eng *sim.Engine, host *fabric.Host, flowID uint64, dstHost, dstPort int, cfg Config) *Sender {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	s := &Sender{}
	s.onTimeoutFn = s.onTimeout
	s.onReorderFn = s.onReorderExpire
	s.rebind(eng, host, flowID, dstHost, dstPort, cfg)
	return s
}

// Rebind resets every piece of per-connection protocol state and attaches
// the (closed) sender to a new connection, allocating a fresh local port.
// Unlike FlowPool recycling, the owner-set callbacks (CAIncrease, OnAcked,
// OnAllAcked) are preserved: internal/mptcp reuses pooled connections
// whose subflow callbacks are bound once at construction.
func (s *Sender) Rebind(eng *sim.Engine, host *fabric.Host, flowID uint64, dstHost, dstPort int, cfg Config) {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if s.host != nil && !s.freed {
		panic("tcp: Rebind of a sender that is still open")
	}
	s.rebind(eng, host, flowID, dstHost, dstPort, cfg)
}

// rebind is the single place a sender's mutable state is initialized; both
// fresh construction and pool recycling funnel through it, so a recycled
// sender is indistinguishable from a new one (the FlowPool's reset
// invariant). It deliberately leaves the bound-once callbacks
// (onTimeoutFn, onReorderFn) and the caller-owned callback fields alone.
func (s *Sender) rebind(eng *sim.Engine, host *fabric.Host, flowID uint64, dstHost, dstPort int, cfg Config) {
	s.eng = eng
	s.host = host
	s.cfg = cfg
	s.flowID = flowID
	s.srcPort = host.AllocPort()
	s.dstHost = dstHost
	s.dstPort = dstPort
	s.lbHash = fabric.HashFlow(flowID, host.ID, dstHost, s.srcPort, dstPort)
	s.sndUna, s.sndNxt, s.sndMax, s.avail = 0, 0, 0, 0
	s.cwnd = float64(initCwnd * cfg.MSS)
	s.ssthresh = float64(cfg.MaxCwnd)
	s.state = stateOpen
	s.recover = 0
	s.dupAcks = 0
	// Zero-assignment is the spanSet's documented full reset: insert
	// re-anchors spans onto the inline array lazily.
	s.sacked = spanSet{}
	s.retxMark, s.retxPipe = 0, 0
	s.srtt, s.rttvar = 0, 0
	s.rto = cfg.InitRTO
	s.backoff = 0
	s.deadline, s.timerAt = 0, 0
	s.timer = sim.EventHandle{}
	s.reorderTimer = sim.EventHandle{}
	s.reorderArmed = 0
	s.lastRetx = -1
	s.stats = Stats{}
	// Telemetry hooks are per-host (per-engine): refetch, since a recycled
	// sender may land on a different host than its previous life.
	s.tel = host.TCPCounters()
	s.trace = host.PacketTrace()
	s.freed = false
	host.Bind(s.srcPort, s)
}

// Close unbinds the sender's ACK port and cancels its timer. Further use is
// invalid.
func (s *Sender) Close() {
	if s.freed {
		return
	}
	s.freed = true
	s.timer.Cancel()
	s.reorderTimer.Cancel()
	s.host.Unbind(s.srcPort)
}

// FlowID returns the sender's fabric flow identity.
func (s *Sender) FlowID() uint64 { return s.flowID }

// Stats returns a snapshot of the sender's counters.
func (s *Sender) Stats() Stats {
	st := s.stats
	st.LastSRTT = s.srtt
	st.BytesAcked = s.sndUna
	return st
}

// Cwnd returns the congestion window in bytes.
func (s *Sender) Cwnd() float64 { return s.cwnd }

// AddCwnd adjusts the congestion window by delta bytes, clamped to
// [MSS, MaxCwnd]. It is the hook CAIncrease implementations use.
func (s *Sender) AddCwnd(delta float64) {
	s.cwnd += delta
	if s.cwnd < float64(s.cfg.MSS) {
		s.cwnd = float64(s.cfg.MSS)
	}
	if s.cwnd > float64(s.cfg.MaxCwnd) {
		s.cwnd = float64(s.cfg.MaxCwnd)
	}
}

// SRTT returns the smoothed RTT estimate (zero before the first sample).
func (s *Sender) SRTT() sim.Time { return s.srtt }

// InSlowStart reports whether the window is below ssthresh.
func (s *Sender) InSlowStart() bool { return s.cwnd < s.ssthresh }

// Outstanding returns the bytes in flight.
func (s *Sender) Outstanding() int64 { return s.sndNxt - s.sndUna }

// QueuedUnsent returns bytes queued but not yet transmitted.
func (s *Sender) QueuedUnsent() int64 { return s.avail - s.sndNxt }

// Queue appends n bytes to the stream and starts transmitting as the window
// allows. It panics on non-positive n.
func (s *Sender) Queue(n int64, now sim.Time) {
	if n <= 0 {
		panic(fmt.Sprintf("tcp: Queue(%d)", n))
	}
	s.avail += n
	s.trySend(now)
}

func (s *Sender) trySend(now sim.Time) {
	for s.sndNxt < s.avail && s.sndNxt-s.sndUna+int64(s.cfg.MSS) <= int64(s.cwnd) {
		// After an RTO rewound sndNxt, skip over ranges the receiver has
		// SACKed — resending them would only trigger duplicate ACKs.
		if skipped := s.skipSacked(); skipped {
			continue
		}
		payload := int64(s.cfg.MSS)
		if rem := s.avail - s.sndNxt; rem < payload {
			payload = rem
		}
		if next := s.nextSackAbove(s.sndNxt); next > s.sndNxt && next-s.sndNxt < payload {
			payload = next - s.sndNxt
		}
		s.emit(s.sndNxt, int(payload), now)
		s.sndNxt += payload
	}
	// Tail case: less than one MSS of window left but data pending and
	// nothing in flight — send a short segment rather than deadlock.
	if s.sndNxt < s.avail && s.sndNxt == s.sndUna {
		payload := s.avail - s.sndNxt
		if payload > int64(s.cfg.MSS) {
			payload = int64(s.cfg.MSS)
		}
		s.emit(s.sndNxt, int(payload), now)
		s.sndNxt += payload
	}
	if s.Outstanding() > 0 && !s.timer.Pending() {
		s.armTimer(now)
	}
}

func (s *Sender) emit(seq int64, payload int, now sim.Time) {
	p := s.host.NewPacket()
	p.FlowID = s.flowID
	p.DstHost = s.dstHost
	p.SrcPort = s.srcPort
	p.DstPort = int32(s.dstPort)
	p.Seq = seq
	p.Payload = int32(payload)
	p.SentAt = now
	p.SetLBHash(s.lbHash)
	s.stats.SegmentsSent++
	s.stats.BytesSent += uint64(payload)
	// Every segment that starts below the high-water mark is a resend,
	// whichever path sent it: a hole in recovery, or the go-back-N walk
	// from snd.una after an RTO.
	if seq < s.sndMax {
		s.stats.RetxSegments++
		if s.tel != nil {
			s.tel.Retransmits++
		}
	}
	if end := seq + int64(payload); end > s.sndMax {
		s.sndMax = end
	}
	s.host.Send(p, now)
}

func (s *Sender) armTimer(now sim.Time) {
	d := s.rto << s.backoff
	if d > maxRTO {
		d = maxRTO
	}
	s.deadline = now + d
	if !s.timer.Pending() {
		s.timerAt = s.deadline
		s.timer = s.eng.At(s.deadline, s.onTimeoutFn)
	} else if s.deadline < s.timerAt {
		// The RTO shrank below the armed fire time (a large RTT-variance
		// drop); a lazy fire would then be late, so re-arm eagerly. With
		// the MinRTO floor this is rare enough not to matter.
		s.timer.Cancel()
		s.timerAt = s.deadline
		s.timer = s.eng.At(s.deadline, s.onTimeoutFn)
	}
	// Otherwise the pending fire at timerAt ≤ deadline re-checks the
	// deadline and reschedules itself (onTimeout's lazy re-arm).
}

func (s *Sender) onTimeout(now sim.Time) {
	if s.sndUna >= s.avail {
		return // everything acked while the timer raced
	}
	if now < s.deadline {
		// Stale fire: ACKs advanced the deadline without touching the
		// event. Chase it.
		s.timerAt = s.deadline
		s.timer = s.eng.At(s.deadline, s.onTimeoutFn)
		return
	}
	s.stats.Timeouts++
	if s.tel != nil {
		s.tel.Timeouts++
	}
	s.trace.TriggerRTO(now)
	// RFC 5681 §3.1 / RFC 6298 §5: collapse to one segment, halve
	// ssthresh, back the timer off, and go back to snd.una.
	flight := float64(s.Outstanding())
	s.ssthresh = flight / 2
	if min := float64(2 * s.cfg.MSS); s.ssthresh < min {
		s.ssthresh = min
	}
	s.cwnd = float64(s.cfg.MSS)
	s.sndNxt = s.sndUna
	s.state = stateOpen
	s.dupAcks = 0
	// The scoreboard is retained (RFC 6675): the go-back-N resend skips
	// SACKed ranges, so already-delivered data is not resent.
	s.retxMark = 0
	s.retxPipe = 0
	if s.backoff < 16 {
		s.backoff++
	}
	s.lastRetx = now
	// Go back to snd.una; trySend re-arms the timer with the backed-off
	// RTO, and emit counts each resent segment.
	s.trySend(now)
}

// Receive handles an ACK (the sender's bound port only ever sees ACKs).
func (s *Sender) Receive(p *fabric.Packet, now sim.Time) {
	if !p.IsAck || s.freed {
		return
	}
	for i := range p.SackN {
		s.addSack(p.AckNo+int64(p.Sack[i][0]), p.AckNo+int64(p.Sack[i][1]))
	}
	ack := p.AckNo
	if ack > s.sndUna {
		s.onNewAck(ack, p.EchoTS, now)
	} else if ack == s.sndUna && s.Outstanding() > 0 {
		s.onDupAck(now)
	}
}

// addSack merges one reported range into the scoreboard.
func (s *Sender) addSack(start, end int64) {
	if end <= start || end <= s.sndUna {
		return
	}
	if start < s.sndUna {
		start = s.sndUna
	}
	s.sacked.insert(start, end)
}

// skipSacked advances sndNxt over a SACKed range it sits in, reporting
// whether it moved.
func (s *Sender) skipSacked() bool {
	for _, r := range s.sacked.spans {
		if s.sndNxt >= r.start && s.sndNxt < r.end {
			s.sndNxt = r.end
			return true
		}
	}
	return false
}

// nextSackAbove returns the start of the first SACKed range beginning
// strictly above seq, or −1 if none.
func (s *Sender) nextSackAbove(seq int64) int64 {
	for _, r := range s.sacked.spans {
		if r.start > seq {
			return r.start
		}
	}
	return -1
}

// pruneSack drops scoreboard state at or below the cumulative ACK.
func (s *Sender) pruneSack() {
	sp := s.sacked.spans
	k := 0
	for _, r := range sp {
		if r.end <= s.sndUna {
			continue
		}
		if r.start < s.sndUna {
			r.start = s.sndUna
		}
		sp[k] = r
		k++
	}
	s.sacked.spans = sp[:k]
}

// nextHole returns the start of the next unretransmitted, unsacked segment
// below the recovery point, and how many bytes may be retransmitted there;
// ok is false when no hole remains.
func (s *Sender) nextHole() (seq int64, size int, ok bool) {
	cand := s.sndUna
	if s.retxMark > cand {
		cand = s.retxMark
	}
	limit := s.recover
	if s.avail < limit {
		limit = s.avail
	}
	for _, r := range s.sacked.spans {
		if cand >= limit {
			return 0, 0, false
		}
		if cand < r.start {
			// Hole before this sacked range.
			n := int64(s.cfg.MSS)
			if r.start-cand < n {
				n = r.start - cand
			}
			if limit-cand < n {
				n = limit - cand
			}
			return cand, int(n), n > 0
		}
		if cand < r.end {
			cand = r.end
		}
	}
	if cand >= limit {
		return 0, 0, false
	}
	n := int64(s.cfg.MSS)
	if limit-cand < n {
		n = limit - cand
	}
	return cand, int(n), n > 0
}

// retransmitNextHole resends the next unsacked hole, if any remains in
// this recovery episode.
func (s *Sender) retransmitNextHole(now sim.Time) bool {
	seq, size, ok := s.nextHole()
	if !ok {
		return false
	}
	s.lastRetx = now
	s.emit(seq, size, now)
	s.retxMark = seq + int64(size)
	s.retxPipe += int64(size)
	return true
}

func (s *Sender) sackedBytes() int64 {
	var n int64
	for _, r := range s.sacked.spans {
		n += r.end - r.start
	}
	return n
}

// lostBytes estimates the bytes the network has dropped, RFC 6675 style: a
// byte is deemed lost when at least 3·MSS of data above it has been
// SACKed. With H the highest SACKed offset, that is every unsacked byte
// below H − 3·MSS.
func (s *Sender) lostBytes() int64 {
	if len(s.sacked.spans) == 0 {
		return 0
	}
	limit := s.sacked.spans[len(s.sacked.spans)-1].end - int64(3*s.cfg.MSS)
	if limit <= s.sndUna {
		return 0
	}
	lost := limit - s.sndUna
	for _, r := range s.sacked.spans {
		if r.start >= limit {
			break
		}
		end := r.end
		if end > limit {
			end = limit
		}
		lost -= end - r.start
	}
	if lost < 0 {
		lost = 0
	}
	return lost
}

// recoveryAllowance estimates how many more bytes may enter the network
// during recovery: cwnd minus the pipe, where the pipe is outstanding data
// less SACKed and inferred-lost bytes, plus unacked retransmissions
// (RFC 6675's pipe, approximated at byte granularity).
func (s *Sender) recoveryAllowance() int64 {
	pipe := s.sndNxt - s.sndUna - s.sackedBytes() - s.lostBytes() + s.retxPipe
	return int64(s.cwnd) - pipe
}

// recoverySend transmits as much as the recovery pipe allows: hole
// retransmissions first, then new data.
func (s *Sender) recoverySend(now sim.Time) {
	for s.recoveryAllowance() >= int64(s.cfg.MSS) {
		if s.retransmitNextHole(now) {
			continue
		}
		if s.sndNxt >= s.avail {
			return
		}
		payload := int64(s.cfg.MSS)
		if rem := s.avail - s.sndNxt; rem < payload {
			payload = rem
		}
		s.emit(s.sndNxt, int(payload), now)
		s.sndNxt += payload
	}
}

func (s *Sender) onNewAck(ack int64, echo sim.Time, now sim.Time) {
	acked := ack - s.sndUna
	s.sndUna = ack
	s.backoff = 0
	s.pruneSack()

	// RTT sampling with Karn's rule: skip samples that could stem from a
	// retransmitted segment.
	if echo > s.lastRetx {
		s.sampleRTT(now - echo)
	}

	if s.state == stateRecovery {
		s.retxPipe -= acked
		if s.retxPipe < 0 {
			s.retxPipe = 0
		}
		if ack > s.recover {
			// Full recovery: deflate to ssthresh and leave recovery.
			s.state = stateOpen
			s.cwnd = s.ssthresh
			s.dupAcks = 0
			s.retxMark = 0
			s.retxPipe = 0
		} else {
			// Partial ACK: the hole at the new snd.una is definitely
			// still missing (its earlier retransmission may itself have
			// been lost), so repair restarts there — this retransmission
			// is mandatory, outside the pipe allowance.
			s.retxMark = s.sndUna
			s.retransmitNextHole(now)
			s.recoverySend(now)
		}
	} else {
		s.dupAcks = 0
		s.grow(int(acked))
	}

	if s.Outstanding() > 0 {
		s.armTimer(now)
	} else {
		s.timer.Cancel()
	}
	if s.OnAcked != nil {
		s.OnAcked(acked, now)
	}
	s.trySend(now)
	if s.sndUna >= s.avail && s.OnAllAcked != nil {
		s.OnAllAcked(now)
	}
}

// grow opens the window by the bytes an ACK covers (RFC 3465): in slow
// start by at most 2·MSS per ACK (its limit L), in congestion avoidance by
// acked·MSS/cwnd, one MSS per window of acknowledged bytes however many ACKs
// carry it.
func (s *Sender) grow(acked int) {
	if s.InSlowStart() {
		s.AddCwnd(float64(min(acked, 2*s.cfg.MSS)))
		return
	}
	if s.CAIncrease != nil {
		s.CAIncrease(acked)
		return
	}
	s.AddCwnd(float64(acked) * float64(s.cfg.MSS) / s.cwnd)
}

func (s *Sender) onDupAck(now sim.Time) {
	s.stats.DupAcksSeen++
	if s.tel != nil {
		s.tel.DupAcks++
	}
	if s.state == stateRecovery {
		// Each arriving ACK signals a departure; send what the pipe
		// allows (hole repairs before new data).
		s.recoverySend(now)
		return
	}
	s.dupAcks++
	if s.dupAcks < dupThresh {
		return
	}
	if s.cfg.ReorderWindow > 0 {
		// Reordering resilience: defer the loss declaration; a path
		// change (flowlet move, packet spraying) produces dup ACKs that
		// resolve on their own within the reordering window.
		if !s.reorderTimer.Pending() {
			if s.tel != nil {
				s.tel.ReorderDefers++
			}
			s.reorderArmed = s.sndUna
			// At(now+...), not After: transport handlers schedule relative
			// to the time they were handed, never the engine clock.
			s.reorderTimer = s.eng.At(now+s.cfg.ReorderWindow, s.onReorderFn)
		}
		return
	}
	s.enterRecovery(now)
}

// onReorderExpire is the reorder timer body (bound once as onReorderFn):
// the deferred loss declaration fires only if the cumulative ACK has not
// moved since the timer was armed.
func (s *Sender) onReorderExpire(now sim.Time) {
	if s.freed || s.state == stateRecovery {
		return
	}
	if s.sndUna == s.reorderArmed && s.Outstanding() > 0 {
		s.enterRecovery(now)
	}
}

// enterRecovery starts SACK-based fast recovery (RFC 6675 style).
func (s *Sender) enterRecovery(now sim.Time) {
	s.stats.FastRetx++
	s.stats.RecoveryEvents++
	if s.tel != nil {
		s.tel.FastRetx++
	}
	s.state = stateRecovery
	s.recover = s.sndNxt
	s.retxMark = s.sndUna
	s.retxPipe = 0
	flight := float64(s.Outstanding())
	s.ssthresh = flight / 2
	if min := float64(2 * s.cfg.MSS); s.ssthresh < min {
		s.ssthresh = min
	}
	s.cwnd = s.ssthresh
	// The first retransmission is mandatory regardless of pipe state.
	s.retransmitNextHole(now)
	s.armTimer(now)
}

func (s *Sender) sampleRTT(r sim.Time) {
	if r <= 0 {
		r = 1
	}
	s.stats.RTTSamples++
	if s.srtt == 0 {
		s.srtt = r
		s.rttvar = r / 2
	} else {
		// RFC 6298 with α=1/8, β=1/4.
		d := s.srtt - r
		if d < 0 {
			d = -d
		}
		s.rttvar = (3*s.rttvar + d) / 4
		s.srtt = (7*s.srtt + r) / 8
	}
	rto := s.srtt + 4*s.rttvar
	if rto < s.cfg.MinRTO {
		rto = s.cfg.MinRTO
	}
	if rto > maxRTO {
		rto = maxRTO
	}
	s.rto = rto
}
