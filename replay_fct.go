package conga

import (
	"fmt"

	"conga/internal/replay"
)

// This file glues internal/replay to the FCT harness: fingerprinting the
// topology, building trace headers and validating a trace before its
// arrivals are injected. Drawn and recorded arrival lists go through the
// same injector (run.inject), which is why same-scheme replay is
// bit-identical (same events/op, same per-flow FCTs).

// fingerprintDesc canonically describes the fabric *shape* — the fields
// that make recorded host IDs meaningful. Scheme, transport, link
// failures, per-link rate overrides and buffer sizes are deliberately
// excluded: varying those against a fixed workload is the point of replay.
func (t Topology) fingerprintDesc() string {
	return fmt.Sprintf("leaves=%d spines=%d hosts/leaf=%d links/spine=%d access=%gG fabric=%gG",
		t.Leaves, t.Spines, t.HostsPerLeaf, t.LinksPerSpine, t.AccessGbps, t.FabricGbps)
}

// traceHeader builds the provenance header for a recording run. cfg must
// already have defaults applied.
func (cfg FCTConfig) traceHeader(workloadName string) replay.Header {
	desc := cfg.Topology.fingerprintDesc()
	return replay.Header{
		Harness:    "fct",
		Scheme:     SchemeName(cfg.Scheme),
		Workload:   workloadName,
		Load:       cfg.Load,
		Seed:       cfg.Seed,
		TopoFP:     replay.Fingerprint(desc),
		Topo:       desc,
		DurationNs: int64(cfg.Duration),
	}
}

// checkReplay validates a trace against the (defaulted) config about to
// replay it.
func (cfg FCTConfig) checkReplay() error {
	t := cfg.Replay
	if err := t.Validate(); err != nil {
		return err
	}
	desc := cfg.Topology.fingerprintDesc()
	if err := t.CheckTopology(replay.Fingerprint(desc), desc); err != nil {
		return err
	}
	// The fingerprint proves the shape matches; still bound the host IDs so
	// a forged header cannot crash the harness.
	hosts := cfg.Topology.Leaves * cfg.Topology.HostsPerLeaf
	for i, f := range t.Flows {
		if f.Src >= hosts || f.Dst >= hosts {
			return fmt.Errorf("replay: corrupt trace: arrival %d names host %d→%d beyond the fabric's %d hosts", i, f.Src, f.Dst, hosts)
		}
	}
	return nil
}

// traceProvenance is the one-line run ancestry string stamped into
// telemetry sink headers, so flushed data always names the workload that
// drove it. verb is "replay" or "record".
func traceProvenance(verb string, h replay.Header) string {
	return fmt.Sprintf("%s harness=%s scheme=%s workload=%s load=%g seed=%d flows=%d fp=%016x",
		verb, h.Harness, h.Scheme, h.Workload, h.Load, h.Seed, h.Flows, h.TopoFP)
}
