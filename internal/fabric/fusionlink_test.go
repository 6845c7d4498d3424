package fabric

import (
	"fmt"
	"hash/fnv"
	"testing"

	"conga/internal/sim"
)

// failRunStats is everything observable about a fail/restore scenario run:
// delivery counts at the sink plus transmit/drop totals over every link in
// the fabric.
type failRunStats struct {
	packets int
	bytes   int64
	tx      uint64
	txBytes uint64
	drops   uint64
	dropB   uint64
}

// runFailScenario floods one flow across the fabric, fails leaf 0's uplink
// `up` at failAt, restores it at restoreAt, and runs to 400 µs.
func runFailScenario(t *testing.T, up int, failAt, restoreAt sim.Time) failRunStats {
	t.Helper()
	eng := sim.New()
	cfg := smallTestConfig(SchemeCONGA)
	n, err := NewNetwork(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sink := &testSink{}
	dst := n.Hosts[4] // first host on the other leaf
	dst.Bind(7777, sink)
	// Slightly below line rate: links are mostly idle, so claims with
	// nothing queued behind them are outstanding when the failure lands.
	flood(eng, n, 1, n.Hosts[0], dst, 7777, 1000, 8e8, 0, 300*sim.Microsecond)

	link := n.Leaves[0].uplinks[up]
	eng.At(failAt, func(sim.Time) { link.SetUp(false) })
	if restoreAt > 0 {
		eng.At(restoreAt, func(sim.Time) { link.SetUp(true) })
	}
	eng.Run(400 * sim.Microsecond)

	st := failRunStats{packets: sink.packets, bytes: sink.bytes}
	all := append([]*Link{}, n.fabricLinks...)
	for _, h := range n.Hosts {
		all = append(all, h.out)
	}
	for _, l := range all {
		st.tx += l.TxPackets()
		st.txBytes += l.TxBytes()
		st.drops += l.Drops
		st.dropB += l.DropBytes
	}
	return st
}

// TestFusionSetUpMidClaimMatchesSlowPath sweeps a link failure (and a later
// restore) across a fine time grid so it lands in every phase of a
// packet's life on the link: before a claim, mid-serialization (the
// claim-kill path: the packet is hunted down in the inflight ring and
// dropped at failure time), during propagation (committed to the wire; must
// deliver), and while queued. The per-uplink fingerprints over every
// offset's delivery, transmit and drop totals were recorded from PR 12's
// discrete transmit→txDone→deliver path, which killed its in-service packet
// at exactly those instants; the randomized reference-model test in
// linkmodel_test.go covers the same ground packet by packet.
func TestFusionSetUpMidClaimMatchesSlowPath(t *testing.T) {
	want := [2]uint64{0xa38f7e2587f6dc9c, 0x51e661812c0c53f0}
	for up := 0; up < 2; up++ { // the flow hashes onto one of the two uplinks
		h := fnv.New64a()
		for off := sim.Time(0); off <= 30*sim.Microsecond; off += 500 * sim.Nanosecond {
			st := runFailScenario(t, up, 20*sim.Microsecond+off, 120*sim.Microsecond)
			fmt.Fprintf(h, "%d %d %d %d %d %d\n",
				st.packets, st.bytes, st.tx, st.txBytes, st.drops, st.dropB)
		}
		if got := h.Sum64(); got != want[up] {
			t.Errorf("uplink %d: fail/restore sweep fingerprint %#x, want %#x", up, got, want[up])
		}
	}
}

// TestExchangeAcceptsBoundaryArrival pins the window-edge contract: a
// cross-domain hop whose arrival lands exactly on windowEnd is legal
// (the lookahead guarantee is "at or after"), must survive the merge, and
// must schedule at precisely the boundary tick.
func TestExchangeAcceptsBoundaryArrival(t *testing.T) {
	n, err := NewPartitionedNetwork(partEngines(2), partCfg(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	l := crossUplink(t, n)
	eng1 := n.engines[1]
	log := &arrivalLog{eng: eng1}
	l.dst = log
	p := n.pools[0].Get()
	p.link = l
	const we = sim.Time(2000)
	n.mail[0][1].push(p, we) // arrival == windowEnd: the legal edge
	n.Exchange(1, we)        // must not panic

	if next, ok := eng1.NextAt(); !ok || next != we || eng1.Live() != 1 {
		t.Fatalf("boundary arrival scheduled at %v (ok=%v, %d live), want %v", next, ok, eng1.Live(), we)
	}
	base := eng1.Executed()
	eng1.Run(we) // the closed interval includes the boundary tick
	if len(log.recs) != 1 || log.recs[0] != (arrivalRec{p, we, base + 1}) {
		t.Fatalf("deliveries %+v, want the boundary arrival at %v as one event", log.recs, we)
	}
}
