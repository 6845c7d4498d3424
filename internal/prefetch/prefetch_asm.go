//go:build amd64 || arm64

package prefetch

import "unsafe"

// Lines2 hints that the 128 bytes at p are about to be read.
//
//go:noescape
func Lines2(p unsafe.Pointer)
