//go:build !purego

#include "textflag.h"

// func addStrips(y, x *float32, k, xrows int, cols *int32, vals *float32, n, stride int, accum bool) (ok bool)
//
// Registers: DI output strip, SI X strip (X + strip offset), R9 bytes
// per X row, R10 xrows, R11 cols, R12 vals-cols (so a pair's value sits
// at its col's address + R12), R13 n, R14 stride, CX strips left,
// R8 pair cursor, DX pairs left, BX column byte offset, X4/Y4 broadcast
// value, X0-X3/Y0-Y1 lanes, X5-X8/Y5-Y6 products.
//
// The AVX2 path (useAVX2 set) walks the run once per 16-column strip
// with two YMM lanes and once more for an 8-column strip when
// K&15 >= 8. It then clears the upper YMM halves with VZEROUPPER, on
// the bad-column exit too, and finishes a last 4-column strip
// (K&4) in the SSE path's strip4 loop. The SSE path walks the run once
// per 16-column strip with four XMM lanes and then once per remaining
// 4-column strip. Both multiply with (V)MULPS and add with (V)ADDPS,
// never FMA, so each lane's sum is the same bit for bit.
TEXT ·addStrips(SB), NOSPLIT, $0-73
	MOVQ y+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ k+16(FP), R9
	SHLQ $2, R9
	MOVQ xrows+24(FP), R10
	MOVQ cols+32(FP), R11
	MOVQ vals+40(FP), R12
	SUBQ R11, R12
	MOVQ n+48(FP), R13
	MOVQ stride+56(FP), R14

	CMPB ·useAVX2(SB), $0
	JNE  avx2

	MOVQ R9, CX
	SHRQ $6, CX
	JZ   quads

strip16:
	CMPB accum+64(FP), $0
	JEQ  zero16
	MOVUPS 0(DI), X0
	MOVUPS 16(DI), X1
	MOVUPS 32(DI), X2
	MOVUPS 48(DI), X3
	JMP  walk16

zero16:
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3

walk16:
	MOVQ  R11, R8
	MOVQ  R13, DX
	TESTQ DX, DX
	JLE   store16

pair16:
	MOVLQSX (R8), BX
	CMPQ    BX, R10
	JAE     bad
	IMULQ   R9, BX
	MOVSS   (R8)(R12*1), X4
	SHUFPS  $0x00, X4, X4
	MOVUPS  0(SI)(BX*1), X5
	MULPS   X4, X5
	ADDPS   X5, X0
	MOVUPS  16(SI)(BX*1), X6
	MULPS   X4, X6
	ADDPS   X6, X1
	MOVUPS  32(SI)(BX*1), X7
	MULPS   X4, X7
	ADDPS   X7, X2
	MOVUPS  48(SI)(BX*1), X8
	MULPS   X4, X8
	ADDPS   X8, X3
	ADDQ    R14, R8
	DECQ    DX
	JNZ     pair16

store16:
	MOVUPS X0, 0(DI)
	MOVUPS X1, 16(DI)
	MOVUPS X2, 32(DI)
	MOVUPS X3, 48(DI)
	ADDQ   $64, DI
	ADDQ   $64, SI
	DECQ   CX
	JNZ    strip16

quads:
	MOVQ R9, CX
	ANDQ $63, CX
	SHRQ $4, CX
	JZ   done

strip4:
	CMPB accum+64(FP), $0
	JEQ  zero4
	MOVUPS 0(DI), X0
	JMP  walk4

zero4:
	XORPS X0, X0

walk4:
	MOVQ  R11, R8
	MOVQ  R13, DX
	TESTQ DX, DX
	JLE   store4

pair4:
	MOVLQSX (R8), BX
	CMPQ    BX, R10
	JAE     bad
	IMULQ   R9, BX
	MOVSS   (R8)(R12*1), X4
	SHUFPS  $0x00, X4, X4
	MOVUPS  0(SI)(BX*1), X5
	MULPS   X4, X5
	ADDPS   X5, X0
	ADDQ    R14, R8
	DECQ    DX
	JNZ     pair4

store4:
	MOVUPS X0, 0(DI)
	ADDQ   $16, DI
	ADDQ   $16, SI
	DECQ   CX
	JNZ    strip4

done:
	MOVB $1, ok+72(FP)
	RET

bad:
	MOVB $0, ok+72(FP)
	RET

avx2:
	MOVQ R9, CX
	SHRQ $6, CX
	JZ   ystrip8

ystrip16:
	CMPB accum+64(FP), $0
	JEQ  yzero16
	VMOVUPS 0(DI), Y0
	VMOVUPS 32(DI), Y1
	JMP  ywalk16

yzero16:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1

ywalk16:
	MOVQ  R11, R8
	MOVQ  R13, DX
	TESTQ DX, DX
	JLE   ystore16

ypair16:
	MOVLQSX      (R8), BX
	CMPQ         BX, R10
	JAE          ybad
	IMULQ        R9, BX
	VBROADCASTSS (R8)(R12*1), Y4
	VMULPS       0(SI)(BX*1), Y4, Y5
	VADDPS       Y5, Y0, Y0
	VMULPS       32(SI)(BX*1), Y4, Y6
	VADDPS       Y6, Y1, Y1
	ADDQ         R14, R8
	DECQ         DX
	JNZ          ypair16

ystore16:
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	ADDQ    $64, DI
	ADDQ    $64, SI
	DECQ    CX
	JNZ     ystrip16

ystrip8:
	TESTQ $32, R9
	JZ    ystrip4
	CMPB  accum+64(FP), $0
	JEQ   yzero8
	VMOVUPS 0(DI), Y0
	JMP   ywalk8

yzero8:
	VXORPS Y0, Y0, Y0

ywalk8:
	MOVQ  R11, R8
	MOVQ  R13, DX
	TESTQ DX, DX
	JLE   ystore8

ypair8:
	MOVLQSX      (R8), BX
	CMPQ         BX, R10
	JAE          ybad
	IMULQ        R9, BX
	VBROADCASTSS (R8)(R12*1), Y4
	VMULPS       0(SI)(BX*1), Y4, Y5
	VADDPS       Y5, Y0, Y0
	ADDQ         R14, R8
	DECQ         DX
	JNZ          ypair8

ystore8:
	VMOVUPS Y0, 0(DI)
	ADDQ    $32, DI
	ADDQ    $32, SI

ystrip4:
	VZEROUPPER
	MOVQ R9, CX
	ANDQ $16, CX
	SHRQ $4, CX
	JNZ  strip4
	JMP  done

ybad:
	VZEROUPPER
	JMP bad

// func hasAVX2() bool
//
// Reports whether the CPU has AVX2 and the OS saves YMM state: CPUID
// leaf 1 ECX must show OSXSAVE (bit 27) and AVX (bit 28), XCR0 must
// enable XMM and YMM state (bits 1 and 2), and CPUID leaf 7 EBX must
// show AVX2 (bit 5).
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JB   nope
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  nope
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  nope
	MOVL $7, AX
	XORL CX, CX
	CPUID
	TESTL $0x20, BX
	JZ   nope
	MOVB $1, ret+0(FP)

nope:
	RET
