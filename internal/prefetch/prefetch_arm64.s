#include "textflag.h"

// func Lines2(p unsafe.Pointer)
TEXT ·Lines2(SB), NOSPLIT, $0-8
	MOVD p+0(FP), R0
	PRFM (R0), PLDL1KEEP
	PRFM 64(R0), PLDL1KEEP
	RET
