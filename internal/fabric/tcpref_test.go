package fabric_test

import (
	"reflect"
	"testing"

	"conga/internal/fabric"
	"conga/internal/sim"
	"conga/internal/tcp"
)

// TestTCPMatchesReference runs tcp flows on the production fabric and the
// reference's per-flow TCP on the reference fabric, and requires every
// link's log — data and ACK hops with their ACK number, absolute SACK ranges
// and echoed timestamp, and every drop — and every flow's completion time to
// be the same on both. The incast and CONGA cases drop enough for SACK
// recovery, fast retransmit and the retransmission timer all to run, and the
// incast case backs the timer off.
func TestTCPMatchesReference(t *testing.T) {
	const until = 120 * sim.Millisecond
	quick := fabric.Config{NumLeaves: 2, NumSpines: 2, HostsPerLeaf: 8, LinksPerSpine: 2,
		AccessRateBps: 1e9, FabricRateBps: 4e9, EdgeBufBytes: 64 << 10, FabricBufBytes: 32 << 10, HostBufBytes: 256 << 10}
	incast, conga, testbed := quick, quick, fabric.Config{EdgeBufBytes: 48 << 10, FabricBufBytes: 48 << 10, Scheme: fabric.SchemeCONGAFlow}
	incast.EdgeBufBytes = 6 << 10
	conga.Scheme = fabric.SchemeCONGA
	for _, tc := range []struct {
		name     string
		cfg      fabric.Config
		flows    int
		intoZero bool  // every flow sends to host 0
		maxSize  int64 // flow sizes are uniform in [1, maxSize]
		lossy    bool
	}{
		{"incast-2x2", incast, 15, true, 120 << 10, true},
		{"conga-2x2", conga, 16, false, 400 << 10, true},
		{"conga-flow-testbed", testbed, 24, false, 400 << 10, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg.WithDefaults()
			hosts := cfg.NumLeaves * cfg.HostsPerLeaf
			rng := sim.NewRand(3)
			flows := make([]fabric.RefFlow, tc.flows)
			for i := range flows {
				f := fabric.RefFlow{ID: uint64(i + 1), Src: 1 + rng.Intn(hosts-1), Size: 1 + int64(rng.Intn(int(tc.maxSize))),
					At: sim.Time(rng.Intn(int(2 * sim.Millisecond)))}
				if !tc.intoZero {
					f.Dst = rng.Intn(hosts)
					if f.Dst == f.Src {
						f.Dst = 0
					}
				}
				flows[i] = f
			}
			c := tcp.DefaultConfig()
			c.MinRTO, c.InitRTO = sim.Millisecond, 3*sim.Millisecond

			eng := sim.New()
			n := fabric.MustNetwork(eng, cfg)
			logged := fabric.LogHops(t, n)
			fct := map[uint64]sim.Time{}
			var st tcp.Stats
			pool := tcp.NewFlowPool()
			for _, f := range flows {
				eng.At(f.At, func(sim.Time) {
					pool.StartFlow(eng, n.Host(f.Src), n.Host(f.Dst), f.ID, f.Size, c, func(fl *tcp.Flow, now sim.Time) {
						fct[f.ID] = fl.FCT(now)
						s := fl.Sender.Stats()
						st.FastRetx, st.Timeouts, st.RetxSegments = st.FastRetx+s.FastRetx, st.Timeouts+s.Timeouts, st.RetxSegments+s.RetxSegments
					})
				})
			}
			eng.Run(until)
			got := logged()

			want, wantFCT := fabric.RunRefTCP(cfg, fabric.RefTCP{MSS: c.MSS, InitCwnd: c.InitCwnd, DupThresh: c.DupThresh,
				MaxCwnd: c.MaxCwnd, MinRTO: c.MinRTO, MaxRTO: c.MaxRTO, InitRTO: c.InitRTO}, flows, until)
			fabric.CompareHops(t, got, want)
			if !reflect.DeepEqual(fct, wantFCT) {
				t.Fatalf("completion times differ:\nproduction %v\nreference  %v", fct, wantFCT)
			}
			if len(fct) != len(flows) {
				t.Fatalf("%d of %d flows completed by %v", len(fct), len(flows), until)
			}
			drops, sacked := fabric.HopCounts(want)
			t.Logf("%d drops, %d ACKs with SACK blocks, %d fast retransmits, %d timeouts, %d segments resent",
				drops, sacked, st.FastRetx, st.Timeouts, st.RetxSegments)
			if tc.lossy && (drops == 0 || sacked == 0 || st.FastRetx == 0 || st.Timeouts == 0) {
				t.Fatal("loss recovery too tame")
			}
		})
	}
}
