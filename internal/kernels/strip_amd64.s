//go:build !purego

#include "textflag.h"

// func addStrips(y, x *float32, k, xrows int, cols *int32, vals *float32, n, stride int, accum bool) (ok bool)
//
// Registers: DI output strip, SI X strip (X + strip offset), R9 bytes
// per X row, R10 xrows, R11 cols, R12 vals-cols (so a pair's value sits
// at its col's address + R12), R13 n, R14 stride, CX strips left,
// R8 pair cursor, DX pairs left, BX column byte offset, X4 broadcast
// value, X0-X3 lanes, X5-X8 products.
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
