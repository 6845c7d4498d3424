// Command congatrace reads back a trace file and prints a summary. For a
// packet trace flushed by the telemetry subsystem (a -telemetry run's
// trace.ndjson) it prints the capture policy — mode, trigger, how many
// events were suppressed by the flight-recorder ring or reservoir — plus a
// per-event-kind summary. For a flowlet routing audit trail (a -decisions
// run's decisions file) it prints the capture policy, the
// recorded-plus-suppressed accounting, the routing-reason mix, the feedback
// age of the winning remote metrics, and the hottest (srcLeaf, uplink,
// dstLeaf) paths. Both go through telemetry.ReadSinkFile, which tells the
// table from the bytes, so the file's name does not matter; any other sink
// table, a damaged row or a final line cut short is an error naming
// file:line. For a workload replay trace (congasim -record, a gzip'd binary
// stream) it prints the header — format version, recording provenance,
// topology fingerprint, flow count — and the arrival mix.
//
// The Figure 5 flowlet analysis of a synthetic trace is congabench -fig fig5.
//
// Usage:
//
//	congatrace -read out/telemetry/trace.ndjson
//	congatrace -read out/telemetry/decisions.ndjson
//	congatrace -read run.trace.gz
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	read := flag.String("read", "", "the trace file to summarize: a telemetry packet trace or decision trail, or a workload replay trace")
	flag.Parse()
	if *read == "" || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: congatrace -read FILE")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if err := readTrace(os.Stdout, *read); err != nil {
		fmt.Fprintln(os.Stderr, "congatrace:", err)
		os.Exit(1)
	}
}
