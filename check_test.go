package conga

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"conga/internal/sim"
)

// TestCheckDoesNotPerturbSimulation puts the audit on the non-perturbation
// matrix: every scheme sequentially, and every TCP scheme on two domains
// too, must give a result bit-identical with Check on as with it off — and
// pass it.
func TestCheckDoesNotPerturbSimulation(t *testing.T) {
	for _, scheme := range []Scheme{SchemeECMP, SchemeCONGA, SchemeCONGAFlow, SchemeLocal, SchemeSpray, SchemeMPTCPMarker} {
		for _, domains := range []int{1, 2} {
			if domains > 1 && scheme == SchemeMPTCPMarker {
				continue // several domains run TCP only
			}
			cfg := FCTConfig{
				Topology: Topology{Leaves: 2, Spines: 2, HostsPerLeaf: 4, LinksPerSpine: 1,
					AccessGbps: 10, FabricGbps: 10},
				Scheme:       scheme,
				Workload:     WorkloadEnterprise,
				Load:         0.6,
				Duration:     10 * time.Millisecond,
				MaxFlows:     120,
				Seed:         7,
				CollectFlows: true,
				Parallel:     domains,
			}
			off, err := RunFCT(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Check = true
			on, err := RunFCT(cfg)
			if err != nil {
				t.Fatalf("%s on %d domains: %v", SchemeName(scheme), domains, err)
			}
			off.Wall, on.Wall = 0, 0
			if !reflect.DeepEqual(off, on) {
				t.Fatalf("%s on %d domains: Check changed the simulation\noff: %+v\non:  %+v", SchemeName(scheme), domains, off, on)
			}
		}
	}
}

// TestCheckNamesRunFaults plants the faults the run-level audit catches —
// a completed flow short of its size, a packet held past drain, a pooled
// sender or receiver held past drain — and requires the error that names
// each.
func TestCheckNamesRunFaults(t *testing.T) {
	skipSingleGoroutine(t)
	newChecked := func() *run {
		r, err := newRun(quickTopo().withDefaults(), SchemeCONGA, nil, TransportConfig{}.withDefaults(), 1, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		r.enableCheck()
		return r
	}
	r := newChecked()
	r.exec(sim.Millisecond)
	if err := r.audit(); err != nil {
		t.Fatalf("idle run: %v", err)
	}

	r = newChecked()
	r.doms[0].checkDelivered(42, 1000, 999)
	r.doms[0].checkDelivered(43, 1000, 1000)
	if err := r.audit(); err == nil || !strings.Contains(err.Error(), "flow 42 completed having delivered 999 of its 1000 bytes") {
		t.Fatalf("short flow: audit() = %v", err)
	}

	r = newChecked()
	r.net.Host(0).NewPacket() // never sent, never released
	r.exec(sim.Millisecond)
	if err := r.audit(); err == nil || !strings.Contains(err.Error(), "1 of 1 pooled packets are not back on a pool at drain") {
		t.Fatalf("packet held past drain: audit() = %v", err)
	}

	r = newChecked()
	r.doms[0].pool.NewSender(r.doms[0].eng, r.net.Host(0), 1, 1, r.net.Host(1).AllocPort(), r.tcpCfg)
	r.exec(sim.Millisecond)
	if err := r.audit(); err == nil || err.Error() != "check: domain 0's tcp pool leaked at drain: 0 of the 1 senders it allocated are back on its free list" {
		t.Fatalf("sender held past drain: audit() = %v", err)
	}

	r = newChecked()
	r.doms[0].pool.NewReceiver(r.doms[0].eng, r.net.Host(1), r.net.Host(1).AllocPort())
	r.exec(sim.Millisecond)
	if err := r.audit(); err == nil || err.Error() != "check: domain 0's tcp pool leaked at drain: 0 of the 1 receivers it allocated are back on its free list" {
		t.Fatalf("receiver held past drain: audit() = %v", err)
	}
}

// TestCheckIncastAndHDFS runs the audit on the two closed-loop harnesses:
// a fanout-32 Incast, whose synchronized burst builds the deepest
// access-port queue any harness does, and an HDFS trial with background
// flows. Both must pass, with results bit-identical to the unaudited run.
func TestCheckIncastAndHDFS(t *testing.T) {
	skipSingleGoroutine(t)
	topo := Testbed()
	topo.EdgeBufBytes = 64 << 10 // a shallow hot port: it fills and tail-drops
	incast := IncastConfig{
		Topology:     topo,
		Scheme:       SchemeCONGA,
		Transport:    TransportConfig{MinRTO: time.Millisecond},
		Fanout:       32,
		RequestBytes: 2 << 20,
		Rounds:       2,
	}
	off, err := RunIncast(incast)
	if err != nil {
		t.Fatal(err)
	}
	incast.Check = true
	on, err := RunIncast(incast)
	if err != nil {
		t.Fatalf("incast: %v", err)
	}
	if off.Drops == 0 {
		t.Errorf("incast dropped nothing: the hot port never filled its buffer")
	}
	off.Wall, on.Wall = 0, 0
	if !reflect.DeepEqual(off, on) {
		t.Errorf("incast: Check changed the simulation\noff: %+v\non:  %+v", off, on)
	}

	hdfs := HDFSConfig{
		Topology:       quickTopo(),
		Scheme:         SchemeCONGA,
		Transport:      TransportConfig{MinRTO: 10 * time.Millisecond},
		Writers:        6,
		BytesPerWriter: 1 << 20,
		BlockBytes:     256 << 10,
		DiskMBps:       200,
		BackgroundLoad: 0.2,
	}
	hoff, err := RunHDFS(hdfs)
	if err != nil {
		t.Fatal(err)
	}
	hdfs.Check = true
	hon, err := RunHDFS(hdfs)
	if err != nil {
		t.Fatalf("hdfs: %v", err)
	}
	hoff.Wall, hon.Wall = 0, 0
	if !reflect.DeepEqual(hoff, hon) {
		t.Errorf("hdfs: Check changed the simulation\noff: %+v\non:  %+v", hoff, hon)
	}
}

// TestCheckHDFSDrainsBackgroundLoad plants a pooled receiver that is never
// released on an HDFS trial with background load: the job's end stops the
// engine with background flows in flight, so the audit must drain them
// before its pool-return check can see the leak.
func TestCheckHDFSDrainsBackgroundLoad(t *testing.T) {
	skipSingleGoroutine(t)
	cfg := HDFSConfig{
		Topology:       quickTopo(),
		Scheme:         SchemeCONGA,
		Transport:      TransportConfig{MinRTO: 10 * time.Millisecond},
		Writers:        6,
		BytesPerWriter: 1 << 20,
		BlockBytes:     256 << 10,
		DiskMBps:       200,
		BackgroundLoad: 0.2,
		Check:          true,
	}
	_, err := runHDFSPlanted(cfg, func(r *run) {
		r.doms[0].pool.NewReceiver(r.doms[0].eng, r.net.Host(1), r.net.Host(1).AllocPort())
	})
	// Background receivers recycle through the same pool, so the counts
	// vary with the trial; one receiver short is the leak.
	var back, allocated int
	if err == nil {
		t.Fatal("receiver held past an HDFS trial's drain: the audit passed")
	}
	if _, scanErr := fmt.Sscanf(err.Error(), "check: domain 0's tcp pool leaked at drain: %d of the %d receivers", &back, &allocated); scanErr != nil || back+1 != allocated {
		t.Fatalf("receiver held past an HDFS trial's drain: audit() = %v", err)
	}
}
