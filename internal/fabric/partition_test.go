package fabric

import (
	"strings"
	"testing"

	"conga/internal/sim"
	"conga/internal/telemetry"
)

func partCfg(leaves, spines int) Config {
	return Config{
		NumLeaves: leaves, NumSpines: spines, HostsPerLeaf: 2, LinksPerSpine: 1,
		AccessRateBps: 10e9, FabricRateBps: 40e9,
		Scheme: SchemeCONGA,
	}
}

func partEngines(p int) []*sim.Engine {
	engines := make([]*sim.Engine, p)
	for i := range engines {
		engines[i] = sim.New()
	}
	return engines
}

// crossUplink returns leaf 0's uplink to spine 1, which on a two-domain
// network crosses from domain 0 to domain 1.
func crossUplink(t *testing.T, n *Network) *Link {
	t.Helper()
	ls := n.Leaves[0]
	for i, up := range ls.uplinks {
		if ls.uplinkSpine[i] == 1 && up.xq != nil {
			return up
		}
	}
	t.Fatal("expected a cross-domain uplink l0->s1")
	return nil
}

// arrivalLog stands in for a link's destination node and records what the
// engine delivers to it: the packet, the time, and how many events the
// engine had executed once the arrival fired.
type arrivalLog struct {
	eng  *sim.Engine
	recs []arrivalRec
}

type arrivalRec struct {
	p        *Packet
	at       sim.Time
	executed uint64
}

func (a *arrivalLog) handle(p *Packet, _ *Link, now sim.Time) {
	a.recs = append(a.recs, arrivalRec{p, now, a.eng.Executed()})
}

// TestPartitionAssignment checks the ownership rules: leaf l and everything
// below it in domain l%P, spine s in s%P, every link owned by its
// transmitter's domain, and a mailbox on exactly the links whose two ends
// live in different domains.
func TestPartitionAssignment(t *testing.T) {
	n, err := NewPartitionedNetwork(partEngines(2), partCfg(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	if n.domains != 2 {
		t.Fatalf("%d domains, want 2", n.domains)
	}
	if n.pools[0] != n.pool {
		t.Fatal("pools[0] must alias the sequential pool field")
	}
	for leaf, ls := range n.Leaves {
		want := leaf % 2
		for i, up := range ls.uplinks {
			if up.dom != want {
				t.Fatalf("%s owned by domain %d, want %d (transmitter side)", up.Name, up.dom, want)
			}
			spineDom := ls.uplinkSpine[i] % 2
			if cross := up.xq != nil; cross != (want != spineDom) {
				t.Fatalf("%s: mailbox presence %v, want %v", up.Name, cross, want != spineDom)
			}
		}
	}
	for _, h := range n.Hosts {
		want := h.Leaf % 2
		if n.HostDomain(h.ID) != want || h.out.dom != want || h.out.xq != nil {
			t.Fatalf("host %d: access link must be intra-domain %d", h.ID, want)
		}
	}
	for s, ss := range n.Spines {
		for leaf := range ss.down {
			for _, down := range ss.down[leaf] {
				if down.dom != s%2 {
					t.Fatalf("%s owned by domain %d, want %d", down.Name, down.dom, s%2)
				}
				if cross := down.xq != nil; cross != (s%2 != leaf%2) {
					t.Fatalf("%s: mailbox presence %v, want %v", down.Name, cross, s%2 != leaf%2)
				}
			}
		}
	}
}

// TestSequentialBuildHasNoPartitionMachinery checks P=1 (the NewNetwork
// path) carries no mailboxes and marks every link intra-domain — the
// sequential hot path must not grow a branch that does anything.
func TestSequentialBuildHasNoPartitionMachinery(t *testing.T) {
	n, err := NewNetwork(sim.New(), partCfg(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	if n.domains != 1 || n.mail != nil || n.deliv != nil {
		t.Fatalf("sequential network grew partition state: domains=%d mail=%v", n.domains, n.mail)
	}
	for _, l := range n.fabricLinks {
		if l.xq != nil || l.dom != 0 {
			t.Fatalf("%s: sequential link has xq=%v dom=%d", l.Name, l.xq, l.dom)
		}
	}
}

// TestExchangeMergeOrder checks the deterministic merge: entries from
// several source domains with equal and unequal timestamps must fire on the
// destination engine in (time, srcDomain, srcSeq) order, regardless of
// drain order, one event each.
func TestExchangeMergeOrder(t *testing.T) {
	n, err := NewPartitionedNetwork(partEngines(3), partCfg(3, 3))
	if err != nil {
		t.Fatal(err)
	}
	eng := n.engines[2]
	log := &arrivalLog{eng: eng}
	l := n.Leaves[0].uplinks[0]
	l.dst = log
	mk := func(id uint64) *Packet {
		p := n.pools[0].Get()
		p.FlowID, p.link = id, l
		return p
	}
	const we = sim.Time(2000) // windowEnd
	// Source domain 0: out-of-time-order entries (seq still per-mailbox).
	n.mail[0][2].push(mk(1), 5000)
	n.mail[0][2].push(mk(2), 3000)
	// Source domain 1: a tie at 3000 with domain 0 and an earlier arrival.
	n.mail[1][2].push(mk(3), 3000)
	n.mail[1][2].push(mk(4), 3000)
	n.mail[1][2].push(mk(5), 2000)

	n.Exchange(2, we)

	want := []uint64{5, 2, 3, 4, 1} // (2000,s1) (3000,s0) (3000,s1,q0) (3000,s1,q1) (5000,s0)
	wantAt := []sim.Time{2000, 3000, 3000, 3000, 5000}
	if got := eng.Live(); got != len(want) {
		t.Fatalf("engine 2 has %d live delivery events, want %d", got, len(want))
	}
	if next, ok := eng.NextAt(); !ok || next != we {
		t.Fatalf("first arrival scheduled at %v (ok=%v), want %v", next, ok, we)
	}
	for s := 0; s < 3; s++ {
		if s != 2 && len(n.mail[s][2].entries) != 0 {
			t.Fatalf("mailbox %d->2 not drained", s)
		}
	}
	base := eng.Executed()
	eng.Run(sim.MaxTime)
	if len(log.recs) != len(want) || eng.Live() != 0 {
		t.Fatalf("%d arrivals fired, %d live left, want %d and 0", len(log.recs), eng.Live(), len(want))
	}
	for i, r := range log.recs {
		if r.p.FlowID != want[i] || r.at != wantAt[i] || r.executed != base+uint64(i)+1 {
			t.Fatalf("firing %d: flow %d at %v as event %d, want flow %d at %v as event %d",
				i, r.p.FlowID, r.at, r.executed-base, want[i], wantAt[i], i+1)
		}
	}
}

// TestExchangeLookaheadViolationPanics: an arrival inside the window being
// exchanged is a partitioning bug and must fail loudly, not corrupt time.
func TestExchangeLookaheadViolationPanics(t *testing.T) {
	n, err := NewPartitionedNetwork(partEngines(2), partCfg(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	p := n.pools[0].Get()
	p.link = n.Leaves[0].uplinks[0]
	n.mail[0][1].push(p, 100)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic on lookahead violation")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "lookahead") {
			t.Fatalf("unexpected panic payload: %v", r)
		}
	}()
	n.Exchange(1, 2000)
}

// TestExportSurvivesLinkFailure mirrors the sequential semantics of
// SetUp(false), which drops the queue but not packets already in flight: a
// packet exported to a mailbox has left the transmitter, so failing the
// link afterwards must neither drop it nor stop its delivery event from
// being scheduled on the destination domain at the exported time.
func TestExportSurvivesLinkFailure(t *testing.T) {
	n, err := NewPartitionedNetwork(partEngines(2), partCfg(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	l := crossUplink(t, n)
	eng1 := n.engines[1]
	log := &arrivalLog{eng: eng1}
	l.dst = log

	p := n.pools[0].Get()
	p.Payload = 1000
	eng0 := n.engines[0]
	eng0.At(0, func(now sim.Time) { l.Send(p, now) })
	window := n.Cfg.FabricPropDelay
	eng0.Run(window - 1) // run domain 0's first window: tx completes, export happens

	if len(l.xq.entries) != 1 {
		t.Fatalf("mailbox has %d entries after tx, want 1", len(l.xq.entries))
	}
	exportAt := l.xq.entries[0].at

	l.SetUp(false)
	if len(l.xq.entries) != 1 || l.Drops != 0 {
		t.Fatalf("link failure touched the exported packet: %d entries, %d drops",
			len(l.xq.entries), l.Drops)
	}

	n.Exchange(1, window)
	if next, ok := eng1.NextAt(); !ok || next != exportAt || eng1.Live() != 1 {
		t.Fatalf("delivery scheduled at %v (ok=%v, %d live), want %v", next, ok, eng1.Live(), exportAt)
	}
	base := eng1.Executed()
	eng1.Run(sim.MaxTime)
	if len(log.recs) != 1 || log.recs[0] != (arrivalRec{p, exportAt, base + 1}) {
		t.Fatalf("deliveries %+v, want the exported packet at %v as one event", log.recs, exportAt)
	}
}

// TestCrossDomainArrivalRidesPacketNode checks that a cross-domain hop ends
// the way an intra-domain one does: after the exchange each packet's own
// node is pending on the destination engine for the link it crossed, so a
// window that ends between two arrivals of one exchange fires the first
// and leaves the second queued for the next.
func TestCrossDomainArrivalRidesPacketNode(t *testing.T) {
	n, err := NewPartitionedNetwork(partEngines(2), partCfg(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	l := crossUplink(t, n)
	eng0, eng1 := n.engines[0], n.engines[1]
	log := &arrivalLog{eng: eng1}
	l.dst = log

	var ps [2]*Packet
	for i := range ps {
		ps[i] = n.pools[0].Get()
		ps[i].Payload = 1000
	}
	// The second packet queues behind the first; both leave inside window 0.
	eng0.At(0, func(now sim.Time) { l.Send(ps[0], now); l.Send(ps[1], now) })
	window := n.Cfg.FabricPropDelay
	eng0.Run(window - 1)
	eng1.Run(window - 1)
	if len(l.xq.entries) != 2 || ps[0].ev.Pending() || ps[1].ev.Pending() {
		t.Fatalf("mailbox has %d entries before the exchange, want 2 with idle nodes", len(l.xq.entries))
	}
	at := [2]sim.Time{l.xq.entries[0].at, l.xq.entries[1].at}
	if at[0] >= at[1] {
		t.Fatalf("arrivals at %v and %v, want the queued packet later", at[0], at[1])
	}

	n.Exchange(1, window)
	for i, p := range ps {
		if !p.ev.Pending() || p.link != l {
			t.Fatalf("packet %d after the exchange: pending %v on %v, want its own node pending on %s",
				i, p.ev.Pending(), p.link, l.Name)
		}
	}
	if next, ok := eng1.NextAt(); !ok || next != at[0] || eng1.Live() != 2 {
		t.Fatalf("NextAt %v (ok=%v) with %d live, want %v and 2", next, ok, eng1.Live(), at[0])
	}

	base := eng1.Executed()
	eng1.Run(at[1] - 1) // a window edge between the two arrivals
	if len(log.recs) != 1 || log.recs[0] != (arrivalRec{ps[0], at[0], base + 1}) {
		t.Fatalf("deliveries %+v, want only the first packet at %v", log.recs, at[0])
	}
	if ps[0].ev.Pending() || !ps[1].ev.Pending() || eng1.Live() != 1 {
		t.Fatalf("after the bounded run: pending %v/%v, %d live; want the later arrival still queued",
			ps[0].ev.Pending(), ps[1].ev.Pending(), eng1.Live())
	}
	if next, ok := eng1.NextAt(); !ok || next != at[1] {
		t.Fatalf("NextAt %v (ok=%v), want the put-back arrival at %v", next, ok, at[1])
	}
	eng1.Run(at[1] + window) // the next window
	if len(log.recs) != 2 || log.recs[1] != (arrivalRec{ps[1], at[1], base + 2}) || eng1.Live() != 0 {
		t.Fatalf("deliveries %+v, want the second packet at %v as the next event", log.recs, at[1])
	}
}

// TestCrossDomainKillPanics pulls the cable while a packet is serializing
// on a cross-domain link: its arrival already sits in the mailbox, out of
// the link's reach, so the kill fails loudly and names the parallel engine
// instead of delivering a packet the link counts as dropped.
func TestCrossDomainKillPanics(t *testing.T) {
	n, err := NewPartitionedNetwork(partEngines(2), partCfg(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	l := crossUplink(t, n)
	eng0 := n.engines[0]
	p := n.pools[0].Get()
	p.Payload = 1000
	eng0.At(0, func(now sim.Time) { l.Send(p, now) })
	eng0.At(100, func(sim.Time) { l.SetUp(false) }) // mid-serialization
	defer func() {
		r := recover()
		if s, ok := r.(string); !ok || !strings.Contains(s, "parallel engine") || !strings.Contains(s, l.Name) {
			t.Fatalf("panic %v, want one naming %s and the parallel engine", r, l.Name)
		}
	}()
	eng0.Run(n.Cfg.FabricPropDelay - 1)
}

// TestPartitionedValidation exercises the build-time guards.
func TestPartitionedValidation(t *testing.T) {
	if _, err := NewPartitionedNetwork(nil, partCfg(2, 2)); err == nil {
		t.Error("no engines: expected error")
	}
	if _, err := NewPartitionedNetwork(partEngines(3), partCfg(2, 2)); err == nil {
		t.Error("more domains than leaves: expected error")
	}
	neg := partCfg(2, 2)
	neg.FabricPropDelay = -1
	if _, err := NewPartitionedNetwork(partEngines(1), neg); err == nil {
		t.Error("negative FabricPropDelay: expected error")
	}
	nega := partCfg(2, 2)
	nega.AccessPropDelay = -1
	if _, err := NewPartitionedNetwork(partEngines(1), nega); err == nil {
		t.Error("negative AccessPropDelay: expected error")
	}
	tel := partCfg(2, 2)
	tel.Telemetry = telemetry.New(telemetry.Options{})
	if _, err := NewPartitionedNetwork(partEngines(2), tel); err == nil || !strings.Contains(err.Error(), "telemetry") {
		t.Errorf("telemetry under P>1: error %v, want one naming telemetry", err)
	}
	if _, err := NewPartitionedNetwork(partEngines(1), tel); err != nil {
		t.Errorf("telemetry under P=1 must stay allowed: %v", err)
	}
}
