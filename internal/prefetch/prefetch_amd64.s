#include "textflag.h"

// func Offsets(base []uint64, offs []uint32)
TEXT ·Offsets(SB), NOSPLIT, $0-48
	MOVQ base_base+0(FP), AX
	MOVQ offs_base+24(FP), SI
	MOVQ offs_len+32(FP), CX
	TESTQ CX, CX
	JZ   done
loop:
	MOVL (SI), DX
	PREFETCHT0 (AX)(DX*8)
	ADDQ $4, SI
	DECQ CX
	JNZ  loop
done:
	RET

// func Addrs(addrs []unsafe.Pointer)
TEXT ·Addrs(SB), NOSPLIT, $0-24
	MOVQ addrs_base+0(FP), SI
	MOVQ addrs_len+8(FP), CX
	TESTQ CX, CX
	JZ   done
loop:
	MOVQ (SI), AX
	PREFETCHT0 (AX)
	ADDQ $8, SI
	DECQ CX
	JNZ  loop
done:
	RET
