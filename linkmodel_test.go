package conga

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"reflect"
	"sort"
	"testing"
	"time"
)

// linkModelCells is the golden matrix: the paper-artifact configurations
// the link model must reproduce bit-for-bit. Fig09 is the steady-state FCT
// sweep, Fig11 adds a failed fabric link (asymmetry plus the SetUp drop
// paths), Scale64 is the smallest large-fabric sweep cell (many leaves, 40G
// links, pooled flows), and Fig12 turns the queue and imbalance samplers on
// (sequential only; they read link counters mid-run). Each runs
// sequentially and, where listed, space-parallel with two domains (mailbox
// export + window-merge splice paths).
func linkModelCells() []struct {
	name     string
	parallel []int
	cfg      FCTConfig
} {
	fig09 := FCTConfig{
		Topology:  benchTopo(),
		Scheme:    SchemeCONGA,
		Workload:  WorkloadEnterprise,
		Load:      0.6,
		Duration:  10 * time.Millisecond,
		MaxFlows:  150,
		Transport: TransportConfig{MinRTO: 10 * time.Millisecond},
		Seed:      7,
		// Per-flow FCT vectors: a single reordered completion changes the
		// fingerprint, not just the aggregate stats.
		CollectFlows: true,
	}
	fig11 := fig09
	fig11.Topology.FailedLinks = [][3]int{{1, 1, 1}}
	fig11.Seed = 11

	scale64 := ScaleConfig{
		Leaves:     []int{64},
		AccessGbps: []float64{40},
		MaxFlows:   600, // the sweep cell's shape at test-friendly flow count
	}.Configs()[0]
	scale64.CollectFlows = true
	scale64.Seed = 3

	// The same cell over MPTCP (ECMP fabric, 8 subflows per flow): the
	// transport whose connections own or borrow their receivers depending
	// on the domain count.
	fig09mp := fig09
	fig09mp.Scheme = SchemeMPTCPMarker

	fig12 := fig09
	fig12.Duration = 40 * time.Millisecond
	fig12.MaxFlows = 400
	fig12.CollectQueues = true
	fig12.CollectImbalance = true

	return []struct {
		name     string
		parallel []int
		cfg      FCTConfig
	}{
		{"Fig09", []int{1, 2}, fig09},
		{"Fig09MPTCP", []int{1, 2}, fig09mp},
		{"Fig11", []int{1}, fig11},
		{"Scale64", []int{1, 2}, scale64},
		{"Fig12", []int{1}, fig12},
	}
}

// fingerprint is an FNV-1a accumulator over fixed-width words.
type fingerprint struct{ h hash.Hash64 }

func newFingerprint() fingerprint { return fingerprint{fnv.New64a()} }

func (f fingerprint) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	f.h.Write(b[:])
}

func (f fingerprint) f64(v float64) { f.u64(math.Float64bits(v)) }

func (f fingerprint) cdf(c CDF) {
	f.u64(uint64(len(c)))
	for _, p := range c {
		f.f64(p[0])
		f.f64(p[1])
	}
}

// fctFingerprint hashes everything the link model can influence in an FCT
// run — per-flow (ID, size, FCT), drops, retransmits, timeouts, NormFCT
// bits and, when collected, the queue and imbalance CDFs — and nothing it
// is allowed to change: the executed-event count stays out.
func fctFingerprint(r *FCTResult) uint64 {
	f := newFingerprint()
	f.u64(uint64(len(r.FlowFCTs)))
	for _, fl := range r.FlowFCTs {
		f.u64(fl.ID)
		f.u64(uint64(fl.Size))
		f.u64(uint64(fl.FCT))
	}
	f.u64(r.Drops)
	f.u64(r.Retransmits)
	f.u64(r.Timeouts)
	f.f64(r.NormFCT)
	f.cdf(r.ImbalanceCDF)
	f.f64(r.ImbalanceMean)
	names := make([]string, 0, len(r.QueueCDFs))
	for name := range r.QueueCDFs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f.h.Write([]byte(name))
		f.cdf(r.QueueCDFs[name])
		f.f64(r.AvgQueueByLink[name])
	}
	f.cdf(r.HotspotQueueCDF)
	return f.h.Sum64()
}

// TestLinkModelGolden is the link model's correctness contract (DESIGN.md
// §3.9). The fingerprints were recorded from the discrete
// transmit→txDone→deliver link of PR 12 (its fusion-disabled runs) before
// that path was deleted: the virtual-time claim that replaced it must
// reproduce every flow completion, drop, retransmit and sampled CDF of
// those runs, sequentially and across two domains.
func TestLinkModelGolden(t *testing.T) {
	want := map[string]uint64{
		"Fig09/p1":      0xc9bad4369451c472,
		"Fig09/p2":      0x6e927c5dccb5e181,
		"Fig09MPTCP/p1": 0x54d2c47c19f71aa4, // recorded at PR 14, as are the HDFS rows below
		"Fig09MPTCP/p2": 0x3775f9cb62319bb3,
		"Fig11/p1":      0xc4df7aff834d5489,
		"Scale64/p1":    0xadd76d3276e8ece4,
		"Scale64/p2":    0x57c2c57aeeec14a3,
		"Fig12/p1":      0x1dc067fe99b32cc1,
	}
	for _, cell := range linkModelCells() {
		for _, par := range cell.parallel {
			cfg := cell.cfg
			cfg.Parallel = par
			res, err := RunFCT(cfg)
			if err != nil {
				t.Fatalf("%s/p%d: %v", cell.name, par, err)
			}
			key := fmt.Sprintf("%s/p%d", cell.name, par)
			if got := fctFingerprint(res); got != want[key] {
				t.Errorf("%s: fingerprint %#x, want %#x (flows %d, drops %d, retx %d, normFCT %v)",
					key, got, want[key], len(res.FlowFCTs), res.Drops, res.Retransmits, res.NormFCT)
			}
			if cell.name == "Fig12" && (len(res.ImbalanceCDF) == 0 || len(res.QueueCDFs) == 0) {
				t.Errorf("%s: samplers collected nothing; the fingerprint proves nothing", key)
			}
		}
	}
}

// TestLinkModelGoldenIncast is the Fig13 leg of the matrix: the Incast
// micro-benchmark runs every round to completion through a hot queue, tail
// drops and RTOs. Besides the result struct, the telemetry counter rows
// (dequeues are an as-of-now read of the link's tx counter) must equal what
// the discrete link of PR 12 counted.
func TestLinkModelGoldenIncast(t *testing.T) {
	cfg := IncastConfig{
		Topology:     benchTopo(),
		Scheme:       SchemeCONGA,
		Transport:    TransportConfig{MinRTO: time.Millisecond},
		Fanout:       8,
		RequestBytes: 1 << 20,
		Rounds:       2,
		Seed:         5,
		Telemetry:    &TelemetryOptions{Counters: true},
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
	const wantRows = uint64(0x65c99f968b28bc6e)
	if sum := f.h.Sum64(); sum != wantRows {
		t.Fatalf("telemetry counter rows fingerprint %#x, want %#x", sum, wantRows)
	}
	if enq, _, _, _ := reg.LinkTotals(); enq == 0 {
		t.Fatal("counters observed nothing; the comparison proves nothing")
	}
}

// TestLinkModelGoldenHDFS is the Fig14 leg: one trial each with TCP and
// MPTCP background traffic, the closed-loop job and the open-loop
// generator sharing one engine and one set of pools. Values recorded at
// PR 14, before the harnesses moved onto the shared run pipeline.
func TestLinkModelGoldenHDFS(t *testing.T) {
	for _, want := range []struct {
		kind          Transport
		job           time.Duration
		events        uint64
		bgDone, bgGen int
	}{
		{TransportTCP, 18356586, 425449, 104, 114},
		{TransportMPTCP, 28568988, 680377, 165, 175},
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
// 3.0090237993. The values below are the discrete link's.
func TestImbalanceReadsAsOfNow(t *testing.T) {
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
	const wantMean = 3.0090229584
	if math.Abs(res.ImbalanceMean-wantMean) > 5e-11 {
		t.Errorf("ImbalanceMean = %.10f, want %.10f", res.ImbalanceMean, wantMean)
	}
	f := newFingerprint()
	f.cdf(res.ImbalanceCDF)
	const wantCDF = uint64(0x6fa0a08155276d86)
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
