//go:build !amd64 && !arm64

package prefetch

import "unsafe"

// Lines2 hints that the 128 bytes at p are about to be read. No hint is
// issued on this architecture.
func Lines2(p unsafe.Pointer) {}
