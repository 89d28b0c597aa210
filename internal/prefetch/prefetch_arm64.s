#include "textflag.h"

// func Offsets(base []uint64, offs []uint32)
TEXT ·Offsets(SB), NOSPLIT, $0-48
	MOVD base_base+0(FP), R0
	MOVD offs_base+24(FP), R1
	MOVD offs_len+32(FP), R2
	CBZ  R2, done
loop:
	MOVWU.P 4(R1), R3
	ADD  R3<<3, R0, R4
	PRFM (R4), PLDL1KEEP
	SUB  $1, R2
	CBNZ R2, loop
done:
	RET

// func Addrs(addrs []unsafe.Pointer)
TEXT ·Addrs(SB), NOSPLIT, $0-24
	MOVD addrs_base+0(FP), R1
	MOVD addrs_len+8(FP), R2
	CBZ  R2, done
loop:
	MOVD.P 8(R1), R3
	PRFM (R3), PLDL1KEEP
	SUB  $1, R2
	CBNZ R2, loop
done:
	RET
