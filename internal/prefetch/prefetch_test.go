package prefetch

import (
	"testing"
	"unsafe"
)

// TestLines2IsOnlyAHint: any address is legal and nothing is written. nil
// and the last byte of a heap object (so the second line, and most of the
// first, lie outside it) must not fault, and the object keeps its bytes.
func TestLines2IsOnlyAHint(t *testing.T) {
	Lines2(nil)
	buf := make([]byte, 4096)
	for i := range buf {
		buf[i] = byte(i*7 + 1)
	}
	for _, off := range []int{0, 1, 63, 64, 4000, len(buf) - 1} {
		Lines2(unsafe.Pointer(&buf[off]))
	}
	for i, b := range buf {
		if b != byte(i*7+1) {
			t.Fatalf("byte %d changed to %d", i, b)
		}
	}
	small := new(byte) // a 1-byte object: both lines reach past its size class
	*small = 9
	Lines2(unsafe.Pointer(small))
	if *small != 9 {
		t.Fatal("hint wrote to its target")
	}
}
