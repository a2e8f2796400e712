//go:build !purego

#include "textflag.h"

// Registers: AX row, R11 the row's first pair, R13 its pair count,
// DI output strip, SI X strip (X + strip offset), R9 bytes per X and
// output row, R10 xrows, R12 vals-cols (so a pair's value sits at its
// col's address + R12), R14 stride, CX strips left, R8 pair cursor,
// DX pairs left, BX column byte offset, X4/Y4 broadcast value,
// X0-X3/Y0-Y1 lanes, X5-X8/Y5-Y6 products. In the K%4 tail CX holds the
// tail's bytes instead.

// WALK(empty) starts a strip's walk over the row's pairs; an empty row
// goes straight to the strip's store.
#define WALK(empty) \
	MOVQ  R11, R8; \
	MOVQ  R13, DX; \
	TESTQ DX, DX; \
	JZ    empty

// COLUMN(bad) loads the column of the pair at R8, checks it, unsigned,
// below xrows, and leaves its X row's byte offset in BX.
#define COLUMN(bad) \
	MOVLQSX (R8), BX; \
	CMPQ    BX, R10; \
	JAE     bad; \
	IMULQ   R9, BX

// NEXT(loop) steps to the next pair and loops while pairs are left.
#define NEXT(loop) \
	ADDQ R14, R8; \
	DECQ DX; \
	JNZ  loop

// func addRows(y *float32, dst *int32, yrows int, rowptr *int32, lo, hi int, cols *int32, vals *float32, npairs, stride int, x *float32, k, xrows int, accum bool) (ok bool)
//
// For each row i in [lo, hi) it checks the row's pair range
// [rowptr[i], rowptr[i+1]), unsigned, inside [0, npairs] and its output
// row dst[i] (i for a nil dst), unsigned, below yrows, and then walks
// the row once per strip. The AVX2 path (useAVX2 set) walks 16-column
// strips with two YMM lanes and one 8-column strip when K&15 >= 8,
// clears the upper YMM halves with VZEROUPPER, on the bad-index exit
// too, and finishes a last 4-column strip (K&4) in the SSE path's
// strip4 loop. The SSE path walks 16-column strips with four XMM lanes
// and then each remaining 4-column strip. Both end the row in the tail
// loop, one walk for the last K%4 columns with a scalar accumulator
// each. K = 1 takes neither path: k1 walks two rows at once. They
// multiply with (V)MULPS or MULSS and add with (V)ADDPS or ADDSS, never
// FMA, so each element's sum is the same bit for bit.
TEXT ·addRows(SB), NOSPLIT, $0-113
	MOVQ k+88(FP), R9
	SHLQ $2, R9
	MOVQ xrows+96(FP), R10
	MOVQ vals+56(FP), R12
	SUBQ cols+48(FP), R12
	MOVQ stride+72(FP), R14
	MOVQ lo+32(FP), AX
	CMPQ R9, $4
	JEQ  k1

row:
	CMPQ AX, hi+40(FP)
	JGE  done
	MOVQ    rowptr+24(FP), BX
	MOVLQSX (BX)(AX*4), R11
	MOVLQSX 4(BX)(AX*4), R13
	CMPQ    R13, npairs+64(FP)
	JA      bad
	CMPQ    R11, R13
	JA      bad
	SUBQ    R11, R13
	IMULQ   R14, R11
	ADDQ    cols+48(FP), R11
	MOVQ    AX, BX
	MOVQ    dst+8(FP), DI
	TESTQ   DI, DI
	JZ      out
	MOVLQSX (DI)(AX*4), BX

out:
	CMPQ  BX, yrows+16(FP)
	JAE   bad
	IMULQ R9, BX
	MOVQ  y+0(FP), DI
	ADDQ  BX, DI
	MOVQ  x+80(FP), SI
	CMPB  ·useAVX2(SB), $0
	JNE   yrow

	MOVQ R9, CX
	SHRQ $6, CX
	JZ   quads

strip16:
	CMPB accum+104(FP), $0
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
	WALK(store16)

pair16:
	COLUMN(bad)
	MOVSS  (R8)(R12*1), X4
	SHUFPS $0x00, X4, X4
	MOVUPS 0(SI)(BX*1), X5
	MULPS  X4, X5
	ADDPS  X5, X0
	MOVUPS 16(SI)(BX*1), X6
	MULPS  X4, X6
	ADDPS  X6, X1
	MOVUPS 32(SI)(BX*1), X7
	MULPS  X4, X7
	ADDPS  X7, X2
	MOVUPS 48(SI)(BX*1), X8
	MULPS  X4, X8
	ADDPS  X8, X3
	NEXT(pair16)

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
	JZ   tail

strip4:
	CMPB accum+104(FP), $0
	JEQ  zero4
	MOVUPS 0(DI), X0
	JMP  walk4

zero4:
	XORPS X0, X0

walk4:
	WALK(store4)

pair4:
	COLUMN(bad)
	MOVSS  (R8)(R12*1), X4
	SHUFPS $0x00, X4, X4
	MOVUPS 0(SI)(BX*1), X5
	MULPS  X4, X5
	ADDPS  X5, X0
	NEXT(pair4)

store4:
	MOVUPS X0, 0(DI)
	ADDQ   $16, DI
	ADDQ   $16, SI
	DECQ   CX
	JNZ    strip4

// The last K%4 columns: one walk with a scalar accumulator per column,
// X0-X2, and CX their bytes (4, 8 or 12). MOVSS, MULSS and ADDSS leave
// the flags alone, so one compare steers each step.
tail:
	MOVQ  R9, CX
	ANDQ  $12, CX
	JZ    nextrow
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	CMPB  accum+104(FP), $0
	JEQ   walkt
	MOVSS 0(DI), X0
	CMPQ  CX, $8
	JB    walkt
	MOVSS 4(DI), X1
	JE    walkt
	MOVSS 8(DI), X2

walkt:
	WALK(storet)

pairt:
	COLUMN(bad)
	MOVSS (R8)(R12*1), X4
	MOVSS 0(SI)(BX*1), X5
	MULSS X4, X5
	ADDSS X5, X0
	CMPQ  CX, $8
	JB    nextt
	MOVSS 4(SI)(BX*1), X6
	MULSS X4, X6
	ADDSS X6, X1
	JE    nextt
	MOVSS 8(SI)(BX*1), X7
	MULSS X4, X7
	ADDSS X7, X2

nextt:
	NEXT(pairt)

storet:
	MOVSS X0, 0(DI)
	CMPQ  CX, $8
	JB    nextrow
	MOVSS X1, 4(DI)
	JE    nextrow
	MOVSS X2, 8(DI)

nextrow:
	INCQ AX
	JMP  row

done:
	MOVB $1, ok+112(FP)
	RET

bad:
	MOVB $0, ok+112(FP)
	RET

yrow:
	MOVQ R9, CX
	SHRQ $6, CX
	JZ   ystrip8

ystrip16:
	CMPB accum+104(FP), $0
	JEQ  yzero16
	VMOVUPS 0(DI), Y0
	VMOVUPS 32(DI), Y1
	JMP  ywalk16

yzero16:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1

ywalk16:
	WALK(ystore16)

ypair16:
	COLUMN(ybad)
	VBROADCASTSS (R8)(R12*1), Y4
	VMULPS       0(SI)(BX*1), Y4, Y5
	VADDPS       Y5, Y0, Y0
	VMULPS       32(SI)(BX*1), Y4, Y6
	VADDPS       Y6, Y1, Y1
	NEXT(ypair16)

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
	CMPB  accum+104(FP), $0
	JEQ   yzero8
	VMOVUPS 0(DI), Y0
	JMP   ywalk8

yzero8:
	VXORPS Y0, Y0, Y0

ywalk8:
	WALK(ystore8)

ypair8:
	COLUMN(ybad)
	VBROADCASTSS (R8)(R12*1), Y4
	VMULPS       0(SI)(BX*1), Y4, Y5
	VADDPS       Y5, Y0, Y0
	NEXT(ypair8)

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
	JMP  tail

ybad:
	VZEROUPPER
	JMP bad

// K = 1 walks rows two at a time, one pair of each per step, so the
// two rows' dependent ADDSS chains overlap; each row still adds its own
// products in pair order. It checks both rows as the row loop does
// (rowptr[i] <= rowptr[i+1] <= rowptr[i+2] <= npairs, both output rows
// below yrows, every column below xrows) and reads X at column*4 with
// no multiply. DX holds the shorter row's pair count, R13 the longer
// row's extra pairs (negative when row i is longer), R11 and R8 the
// two cursors, R9 the second column (4 again before the next pair of
// rows), DI and CX the two output elements. The last row of an odd
// range goes through the row loop.
k1:
	LEAQ    2(AX), BX
	CMPQ    BX, hi+40(FP)
	JG      row
	MOVQ    rowptr+24(FP), BX
	MOVLQSX (BX)(AX*4), R11
	MOVLQSX 4(BX)(AX*4), R8
	MOVLQSX 8(BX)(AX*4), R13
	CMPQ    R13, npairs+64(FP)
	JA      bad
	CMPQ    R8, R13
	JA      bad
	CMPQ    R11, R8
	JA      bad
	MOVQ    R8, DX
	SUBQ    R11, DX
	SUBQ    R8, R13
	SUBQ    DX, R13
	JGE     k1span
	ADDQ    R13, DX

k1span:
	IMULQ   R14, R11
	ADDQ    cols+48(FP), R11
	IMULQ   R14, R8
	ADDQ    cols+48(FP), R8
	MOVQ    AX, BX
	LEAQ    1(AX), CX
	MOVQ    dst+8(FP), DI
	TESTQ   DI, DI
	JZ      k1out
	MOVLQSX (DI)(AX*4), BX
	MOVLQSX 4(DI)(AX*4), CX

k1out:
	CMPQ  BX, yrows+16(FP)
	JAE   bad
	CMPQ  CX, yrows+16(FP)
	JAE   bad
	MOVQ  x+80(FP), SI
	MOVQ  y+0(FP), DI
	LEAQ  (DI)(CX*4), CX
	LEAQ  (DI)(BX*4), DI
	XORPS X0, X0
	XORPS X1, X1
	CMPB  accum+104(FP), $0
	JEQ   k1walk
	MOVSS (DI), X0
	MOVSS (CX), X1

k1walk:
	TESTQ DX, DX
	JZ    k1rest

k1pair:
	MOVLQSX (R11), BX
	CMPQ    BX, R10
	JAE     bad
	MOVLQSX (R8), R9
	CMPQ    R9, R10
	JAE     bad
	MOVSS   (R11)(R12*1), X4
	MULSS   (SI)(BX*4), X4
	ADDSS   X4, X0
	MOVSS   (R8)(R12*1), X5
	MULSS   (SI)(R9*4), X5
	ADDSS   X5, X1
	ADDQ    R14, R11
	ADDQ    R14, R8
	DECQ    DX
	JNZ     k1pair

k1rest:
	TESTQ R13, R13
	JZ    k1store
	JG    k1rest1
	NEGQ  R13

k1rest0:
	MOVLQSX (R11), BX
	CMPQ    BX, R10
	JAE     bad
	MOVSS   (R11)(R12*1), X4
	MULSS   (SI)(BX*4), X4
	ADDSS   X4, X0
	ADDQ    R14, R11
	DECQ    R13
	JNZ     k1rest0
	JMP     k1store

k1rest1:
	MOVLQSX (R8), BX
	CMPQ    BX, R10
	JAE     bad
	MOVSS   (R8)(R12*1), X5
	MULSS   (SI)(BX*4), X5
	ADDSS   X5, X1
	ADDQ    R14, R8
	DECQ    R13
	JNZ     k1rest1

k1store:
	MOVSS X0, (DI)
	MOVSS X1, (CX)
	MOVQ  $4, R9
	ADDQ  $2, AX
	JMP   k1

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
