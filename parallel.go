package conga

import "conga/internal/runner"

// Parallel experiment execution. Each run builds its own engine and
// network, so runs share nothing and a fixed seed gives the same result
// whether executed sequentially or concurrently; results come back in
// config order. The figure sweeps in cmd/congabench are built on these.

// RunFCTs executes each FCT experiment on its own engine across a
// GOMAXPROCS-bounded worker pool and returns results in config order.
func RunFCTs(cfgs []FCTConfig) ([]*FCTResult, error) {
	return runner.Map(0, cfgs, RunFCT)
}

// RunFCTsStream is RunFCTs with a streaming callback: emit fires once per
// experiment in config order as soon as it (and all earlier configs) have
// finished, so sweeps can print rows while later runs are still going.
func RunFCTsStream(cfgs []FCTConfig, emit func(i int, r *FCTResult, err error)) ([]*FCTResult, error) {
	return runner.MapStream(0, cfgs, RunFCT, emit)
}

// RunIncastsStream executes Incast micro-benchmarks in parallel with a
// per-completion, config-order callback; results come back in config order.
func RunIncastsStream(cfgs []IncastConfig, emit func(i int, r *IncastResult, err error)) ([]*IncastResult, error) {
	return runner.MapStream(0, cfgs, RunIncast, emit)
}

// RunHDFSTrialsStream executes HDFS trials in parallel with a
// per-completion, config-order callback; results come back in config order.
func RunHDFSTrialsStream(cfgs []HDFSConfig, emit func(i int, r *HDFSResult, err error)) ([]*HDFSResult, error) {
	return runner.MapStream(0, cfgs, RunHDFS, emit)
}
