#include "textflag.h"

// func Lines2(p unsafe.Pointer)
TEXT ·Lines2(SB), NOSPLIT, $0-8
	MOVQ p+0(FP), AX
	PREFETCHT0 (AX)
	PREFETCHT0 64(AX)
	RET
