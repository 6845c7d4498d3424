// Package prefetch holds the repository's one cache hint: start loading the
// two cache lines (128 bytes) at a pointer the caller will dereference
// shortly, so the fill overlaps the work done in between instead of stalling
// the first touch (DESIGN.md §3.1, §3.9).
//
// The hint never faults, never writes and never changes a result: any
// address is legal, including nil, one past an object's end and a node that
// has been recycled since it was peeked. It is an instruction pair on amd64
// and arm64 and an empty function everywhere else, chosen by build
// constraint only.
package prefetch
