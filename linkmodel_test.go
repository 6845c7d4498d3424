package conga

import (
	"math"
	"reflect"
	"testing"
	"time"
)

// TestLinkModelGoldenIncast is the link model's Fig13 leg beside
// TestLinkModelGolden's rows: the Incast micro-benchmark runs every round to
// completion through a hot queue, tail drops and RTOs. Besides the result
// struct, the telemetry counter rows (dequeues are an as-of-now read of the
// link's tx counter) must equal what the discrete link counted, re-pinned
// when receivers moved to delayed ACKs.
func TestLinkModelGoldenIncast(t *testing.T) {
	skipSingleGoroutine(t)
	cfg := IncastConfig{
		Topology:     benchTopo(),
		Scheme:       SchemeCONGA,
		Transport:    TransportConfig{MinRTO: time.Millisecond},
		Fanout:       8,
		RequestBytes: 1 << 20,
		Rounds:       2,
		Seed:         5,
		Telemetry:    &TelemetryOptions{},
	}
	res, err := RunIncast(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := res.Telemetry
	got := *res
	got.Telemetry, got.Events, got.Wall = nil, 0, 0
	want := IncastResult{
		Fanout:          8,
		GoodputFraction: 0.9495885188262541,
		CompletedRounds: 2,
		TotalTime:       20 * time.Second,
		RoundTimeMean:   883394,
		RoundTimeP99:    883394,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("incast result diverged from the discrete link\ngot:  %#v\nwant: %#v", got, want)
	}
	f := newFingerprint()
	for _, row := range reg.CounterRows() {
		f.h.Write([]byte(row.Group + "|" + row.Name + "|" + row.Counter))
		f.u64(row.Value)
	}
	const wantRows = uint64(0x4df556fd0889bfb8)
	if sum := f.h.Sum64(); sum != wantRows {
		t.Fatalf("telemetry counter rows fingerprint %#x, want %#x", sum, wantRows)
	}
	if enq, _, _, _ := reg.LinkTotals(); enq == 0 {
		t.Fatal("counters observed nothing; the comparison proves nothing")
	}
}

// TestLinkModelGoldenHDFS is the Fig14 leg: one trial each with TCP and
// MPTCP background traffic, the closed-loop job and the open-loop
// generator sharing one engine and one set of pools. Values first recorded
// before the harnesses moved onto the shared run pipeline; re-pinned when
// receivers moved to delayed ACKs.
func TestLinkModelGoldenHDFS(t *testing.T) {
	skipSingleGoroutine(t)
	for _, want := range []struct {
		kind          Transport
		job           time.Duration
		events        uint64
		bgDone, bgGen int
	}{
		{TransportTCP, 16118690, 296758, 89, 97},
		{TransportMPTCP, 44909036, 1300593, 280, 297},
	} {
		res, err := RunHDFS(HDFSConfig{
			Topology:       benchTopo(),
			Scheme:         SchemeCONGA,
			Transport:      TransportConfig{Kind: want.kind, MinRTO: 10 * time.Millisecond},
			Writers:        8,
			BytesPerWriter: 1 << 20,
			BlockBytes:     256 << 10,
			DiskMBps:       200,
			BackgroundLoad: 0.3,
			Seed:           5,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.JobCompletion != want.job || res.Events != want.events ||
			res.BackgroundCompleted != want.bgDone || res.BackgroundFlows != want.bgGen {
			t.Errorf("%v background: job %d events %d background %d/%d, want %d %d %d/%d", want.kind,
				res.JobCompletion, res.Events, res.BackgroundCompleted, res.BackgroundFlows,
				want.job, want.events, want.bgDone, want.bgGen)
		}
	}
}

// TestImbalanceReadsAsOfNow pins Figure 12's sampler to the as-of-now
// counter read. The sampler ticks mid-run while packets serialize; a
// counter bumped at serialization start (as PR 12's fused links did) moved
// 2 of this cell's 11 CDF points and the mean from 3.0090229584 to
// 3.0090237993. The values below are re-pinned from the discrete link's
// (mean 3.0090229584) for receivers that delay ACKs.
func TestImbalanceReadsAsOfNow(t *testing.T) {
	skipSingleGoroutine(t)
	res, err := RunFCT(FCTConfig{
		Topology:         Testbed(),
		Scheme:           SchemeCONGA,
		Workload:         WorkloadEnterprise,
		Load:             0.6,
		Duration:         50 * time.Millisecond,
		MaxFlows:         400,
		Seed:             1,
		CollectImbalance: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	const wantMean = 3.2049965081
	if math.Abs(res.ImbalanceMean-wantMean) > 5e-11 {
		t.Errorf("ImbalanceMean = %.10f, want %.10f", res.ImbalanceMean, wantMean)
	}
	f := newFingerprint()
	f.cdf(res.ImbalanceCDF)
	const wantCDF = uint64(0x4354a3950899e6cd)
	if got := f.h.Sum64(); got != wantCDF || len(res.ImbalanceCDF) != 11 {
		t.Errorf("imbalance CDF (%d points) fingerprint %#x, want 11 points %#x: %v",
			len(res.ImbalanceCDF), got, wantCDF, res.ImbalanceCDF)
	}
}

// TestObservationCostsNoEvents pins the one-model contract: attaching every
// probe — packet trace, decision trace, counters, series — must not route
// execution through different code. The proof is the executed-event count:
// an observed run costs exactly as many events as an unobserved one and
// returns the same results flow by flow.
func TestObservationCostsNoEvents(t *testing.T) {
	skipSingleGoroutine(t)
	cfg := FCTConfig{
		Topology: Topology{Leaves: 2, Spines: 2, HostsPerLeaf: 4, LinksPerSpine: 1,
			AccessGbps: 10, FabricGbps: 10},
		Scheme:       SchemeCONGA,
		Workload:     WorkloadEnterprise,
		Load:         0.5,
		Duration:     8 * time.Millisecond,
		MaxFlows:     80,
		Seed:         9,
		CollectFlows: true,
	}
	off, err := RunFCT(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Telemetry = TelemetryAll("")
	on, err := RunFCT(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if on.Telemetry.Trace().Len() == 0 {
		t.Fatal("trace recorded nothing; the comparison proves nothing")
	}
	if on.Events != off.Events {
		t.Fatalf("observation changed the event count: %d observed vs %d unobserved", on.Events, off.Events)
	}
	// The engine group (how the links' starts were made, what the wheel and
	// the packet pool did) is pulled from counters the links, the engine and
	// the pool keep anyway, by the collector that pulls Dequeues.
	eng := map[string]uint64{}
	for _, row := range on.Telemetry.EngineRows() {
		eng[row.Counter] = row.Value
	}
	_, deq, _, _ := on.Telemetry.LinkTotals()
	if len(eng) != 7 || eng["link_starts"] != deq || eng["link_starts_drained"] == 0 ||
		eng["link_starts_drained"] > deq || eng["cascades"] == 0 || eng["requeued"] < eng["cascades"] ||
		eng["far_pushes"] != 0 || eng["packet_allocs"] == 0 || eng["packet_recycled"] == 0 {
		t.Fatalf("engine group %v, want seven counters with link_starts = %d dequeues, cascades of at least one event each, a pool that allocated and recycled, and nothing past the wheel", eng, deq)
	}
	a, b := *on, *off
	a.Telemetry = nil
	a.Wall, b.Wall = 0, 0
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("observed run differs from unobserved\nobserved:   %+v\nunobserved: %+v", a, b)
	}
}
