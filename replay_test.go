package conga

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"conga/internal/replay"
)

// replayTestConfig is a small, fast experiment cell: quarter-testbed
// fabric, short arrival window.
func replayTestConfig(scheme Scheme) FCTConfig {
	return FCTConfig{
		Topology:  Topology{Leaves: 2, Spines: 2, HostsPerLeaf: 8, LinksPerSpine: 2, AccessGbps: 10, FabricGbps: 20},
		Scheme:    scheme,
		Workload:  WorkloadEnterprise,
		Load:      0.5,
		Transport: TransportConfig{MinRTO: 10 * time.Millisecond},
		Duration:  10 * time.Millisecond,
		MaxFlows:  400,
		Seed:      7,
	}
}

func sameFlowFCTs(t *testing.T, want, got []FlowFCT, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d flows vs %d", label, len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: flow %d differs: %+v vs %+v", label, i, want[i], got[i])
		}
	}
}

// TestReplayBitIdenticalSameScheme is the core guarantee: replaying a
// recorded trace into the identical scheme/config reproduces the recording
// run bit-identically — same events executed, same per-flow FCT vector —
// including through an on-disk round trip.
func TestReplayBitIdenticalSameScheme(t *testing.T) {
	skipSingleGoroutine(t)
	base := replayTestConfig(SchemeCONGA)
	base.Record = true
	base.CollectFlows = true
	orig, err := RunFCT(base)
	if err != nil {
		t.Fatal(err)
	}
	if orig.Trace == nil || orig.Trace.Header.Flows == 0 {
		t.Fatal("recording produced no trace")
	}
	if orig.Trace.Header.Flows != orig.Generated {
		t.Fatalf("trace has %d flows, run generated %d", orig.Trace.Header.Flows, orig.Generated)
	}
	if orig.Completed == 0 || len(orig.FlowFCTs) != orig.Completed {
		t.Fatalf("CollectFlows kept %d of %d completed", len(orig.FlowFCTs), orig.Completed)
	}

	path := filepath.Join(t.TempDir(), "t.gz")
	if err := orig.Trace.Write(path); err != nil {
		t.Fatal(err)
	}
	tr, err := replay.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg := replayTestConfig(SchemeCONGA)
	cfg.Replay = tr
	cfg.CollectFlows = true
	re, err := RunFCT(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if re.Events != orig.Events {
		t.Errorf("replay executed %d events, recording %d", re.Events, orig.Events)
	}
	if re.Generated != orig.Generated || re.Completed != orig.Completed {
		t.Errorf("replay %d/%d flows vs recording %d/%d",
			re.Generated, re.Completed, orig.Generated, orig.Completed)
	}
	sameFlowFCTs(t, orig.FlowFCTs, re.FlowFCTs, "replay")
	if re.NormFCT != orig.NormFCT {
		t.Errorf("normFCT %v vs %v", re.NormFCT, orig.NormFCT)
	}
}

// TestReplayAcrossSchemesKeepsArrivals replays an ECMP-recorded trace
// under CONGA and MPTCP, re-recording during replay: every scheme must see
// the byte-identical arrival sequence even though the flows' fates differ.
func TestReplayAcrossSchemesKeepsArrivals(t *testing.T) {
	skipSingleGoroutine(t)
	base := replayTestConfig(SchemeECMP)
	base.Record = true
	orig, err := RunFCT(base)
	if err != nil {
		t.Fatal(err)
	}

	for _, scheme := range []Scheme{SchemeCONGA, SchemeCONGAFlow, SchemeMPTCPMarker} {
		cfg := replayTestConfig(scheme)
		cfg.Replay = orig.Trace
		cfg.Record = true
		cfg.CollectFlows = true
		re, err := RunFCT(cfg)
		if err != nil {
			t.Fatalf("%s: %v", SchemeName(scheme), err)
		}
		if re.Trace == nil {
			t.Fatalf("%s: no re-recorded trace", SchemeName(scheme))
		}
		if len(re.Trace.Flows) != len(orig.Trace.Flows) {
			t.Fatalf("%s: %d arrivals vs %d", SchemeName(scheme), len(re.Trace.Flows), len(orig.Trace.Flows))
		}
		for i := range orig.Trace.Flows {
			if re.Trace.Flows[i] != orig.Trace.Flows[i] {
				t.Fatalf("%s: arrival %d differs: %+v vs %+v",
					SchemeName(scheme), i, re.Trace.Flows[i], orig.Trace.Flows[i])
			}
		}
		if re.Completed == 0 {
			t.Errorf("%s: replay completed no flows", SchemeName(scheme))
		}
		// The workload provenance survives re-recording; the scheme is the
		// new run's.
		if re.Trace.Header.Workload != orig.Trace.Header.Workload {
			t.Errorf("%s: workload provenance lost: %q", SchemeName(scheme), re.Trace.Header.Workload)
		}
		if re.Trace.Header.Scheme != SchemeName(scheme) {
			t.Errorf("re-recorded scheme = %q, want %q", re.Trace.Header.Scheme, SchemeName(scheme))
		}
	}
}

// TestGeneratedArrivalsAreCommonRandomNumbers pins what lets two
// CollectFlows runs pair flow by flow with no replay step: the generator's
// own seed fixes the arrivals whatever the scheme. Every single-path scheme
// generates and completes the same flows, ID for ID and size for size. Under
// MPTCP flow n takes ID n·Subflows (its subflows take the IDs between), so it
// pairs with the TCP runs' flow n, and pairing by equal ID would mis-pair.
func TestGeneratedArrivalsAreCommonRandomNumbers(t *testing.T) {
	skipSingleGoroutine(t)
	run := func(scheme Scheme) *FCTResult {
		res, err := RunFCT(FCTConfig{Topology: Testbed(), Scheme: scheme, Workload: WorkloadEnterprise,
			Load: 0.6, Duration: 20 * time.Millisecond, MaxFlows: 300, Seed: 3, CollectFlows: true})
		if err != nil {
			t.Fatalf("%s: %v", SchemeName(scheme), err)
		}
		return res
	}
	ecmp := run(SchemeECMP)
	if ecmp.Generated != 300 || len(ecmp.FlowFCTs) != 300 {
		t.Fatalf("ecmp generated %d and completed %d flows, want 300 and 300", ecmp.Generated, len(ecmp.FlowFCTs))
	}
	for i, f := range ecmp.FlowFCTs {
		if f.ID != uint64(i) {
			t.Fatalf("ecmp flow %d has ID %d", i, f.ID)
		}
	}
	stride := TransportConfig{}.withDefaults().Subflows
	for _, scheme := range []Scheme{SchemeCONGAFlow, SchemeCONGA, SchemeLocal, SchemeSpray, SchemeWCMP, SchemeMPTCPMarker} {
		res, step := run(scheme), uint64(1)
		if scheme == SchemeMPTCPMarker {
			step = uint64(stride)
		}
		if res.Generated != ecmp.Generated || len(res.FlowFCTs) != len(ecmp.FlowFCTs) {
			t.Errorf("%s: generated %d, completed %d; ecmp %d and %d", SchemeName(scheme),
				res.Generated, len(res.FlowFCTs), ecmp.Generated, len(ecmp.FlowFCTs))
			continue
		}
		for i, f := range res.FlowFCTs {
			if want := ecmp.FlowFCTs[i]; f.ID != want.ID*step || f.Size != want.Size {
				t.Errorf("%s: flow %d is (ID %d, %d B), want (ID %d, %d B)", SchemeName(scheme), i, f.ID, f.Size, want.ID*step, want.Size)
				break
			}
		}
	}
}

// TestReplayRejectsMismatchedTopology records on one fabric shape and
// replays on another: the fingerprint check must refuse, naming both
// shapes.
func TestReplayRejectsMismatchedTopology(t *testing.T) {
	skipSingleGoroutine(t)
	base := replayTestConfig(SchemeECMP)
	base.Record = true
	base.MaxFlows = 50
	orig, err := RunFCT(base)
	if err != nil {
		t.Fatal(err)
	}

	cfg := replayTestConfig(SchemeCONGA)
	cfg.Topology.HostsPerLeaf = 4 // different shape
	cfg.Replay = orig.Trace
	_, err = RunFCT(cfg)
	if err == nil {
		t.Fatal("mismatched topology accepted")
	}
	if !strings.Contains(err.Error(), "hosts/leaf=8") || !strings.Contains(err.Error(), "hosts/leaf=4") {
		t.Errorf("error %q should name both shapes", err)
	}

	// Same shape under a *different* scheme and failed link must be fine.
	cfg = replayTestConfig(SchemeCONGA)
	cfg.Topology.FailedLinks = [][3]int{{0, 1, 0}}
	cfg.Replay = orig.Trace
	if _, err := RunFCT(cfg); err != nil {
		t.Errorf("failed-link replay rejected: %v", err)
	}

	// A corrupt trace (host beyond the fabric) must be refused even with a
	// matching fingerprint.
	forged := *orig.Trace
	forged.Flows = append([]replay.Flow{}, orig.Trace.Flows...)
	forged.Flows[0].Src = 10_000
	forged.Header.Flows = len(forged.Flows)
	cfg = replayTestConfig(SchemeCONGA)
	cfg.Replay = &forged
	if _, err := RunFCT(cfg); err == nil {
		t.Error("forged host ID accepted")
	}
}

// TestRunReplayCompare checks the paired A/B runner end to end: ECMP vs
// CONGA on one recorded trace, with deterministic matched-pairs statistics
// and coherent bootstrap intervals.
func TestRunReplayCompare(t *testing.T) {
	skipSingleGoroutine(t)
	base := replayTestConfig(SchemeECMP)
	base.Record = true
	orig, err := RunFCT(base)
	if err != nil {
		t.Fatal(err)
	}

	cmpCfg := ReplayCompareConfig{
		Trace: orig.Trace,
		A:     replayTestConfig(SchemeECMP),
		B:     replayTestConfig(SchemeCONGA),
	}
	res, err := RunReplayCompare(cmpCfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Overall.Pairs == 0 {
		t.Fatal("no matched pairs")
	}
	if res.Overall.Pairs != len(res.Deltas) {
		t.Errorf("pairs %d but %d deltas", res.Overall.Pairs, len(res.Deltas))
	}
	if got := res.Overall.Pairs + res.UnmatchedA; got != res.A.Completed {
		t.Errorf("pairs+unmatchedA = %d, side A completed %d", got, res.A.Completed)
	}
	for _, b := range []PairedBucket{res.Overall, res.Small, res.Large} {
		if b.Pairs == 0 {
			continue
		}
		if b.DeltaLo > b.DeltaHi {
			t.Errorf("bucket %s: delta CI inverted [%v, %v]", b.Name, b.DeltaLo, b.DeltaHi)
		}
		if b.RatioLo > b.RatioHi {
			t.Errorf("bucket %s: ratio CI inverted [%v, %v]", b.Name, b.RatioLo, b.RatioHi)
		}
		if b.WinFraction < 0 || b.WinFraction > 1 {
			t.Errorf("bucket %s: win fraction %v", b.Name, b.WinFraction)
		}
	}
	// The A side replays the recording config exactly, so pairing is total
	// on A's completions against itself: verify determinism by re-running.
	res2, err := RunReplayCompare(cmpCfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Overall != res2.Overall || res.Small != res2.Small || res.Large != res2.Large {
		t.Error("paired comparison is not deterministic across runs")
	}
}
