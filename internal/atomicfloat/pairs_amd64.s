//go:build amd64 && !race

#include "textflag.h"

// func hasCX16() bool
TEXT ·hasCX16(SB), NOSPLIT, $0-1
	MOVL	$1, AX
	XORL	CX, CX
	CPUID
	SHRL	$13, CX
	ANDL	$1, CX
	MOVB	CX, ret+0(FP)
	RET

// func addPairs(cells *Float64, src *float64, pairs int, scale float64)
//
// For each of the 16-byte-aligned pairs at cells: load both cells, form
// old + src[k]*scale in each lane with the operand order the compiler
// gives Float64.Add(scale*x) (MULSD into x, ADDSD into old; no FMA), and
// publish both with one LOCK CMPXCHG16B. On failure the instruction
// leaves the current pair in DX:AX, and the sums are formed again from it.
TEXT ·addPairs(SB), NOSPLIT, $0-32
	MOVQ	cells+0(FP), DI
	MOVQ	src+8(FP), SI
	MOVQ	pairs+16(FP), R8
	MOVSD	scale+24(FP), X2
	TESTQ	R8, R8
	JLE	done

pair:
	MOVSD	(SI), X3
	MULSD	X2, X3
	MOVSD	8(SI), X4
	MULSD	X2, X4
	MOVQ	(DI), AX
	MOVQ	8(DI), DX

cas:
	MOVQ	AX, X0
	ADDSD	X3, X0
	MOVQ	X0, BX
	MOVQ	DX, X1
	ADDSD	X4, X1
	MOVQ	X1, CX
	LOCK
	CMPXCHG16B	(DI)
	JNE	cas

	ADDQ	$16, DI
	ADDQ	$16, SI
	DECQ	R8
	JNZ	pair

done:
	RET
