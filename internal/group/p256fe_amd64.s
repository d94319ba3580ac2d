// P-256 field multiplication and squaring on BMI2's MULX and ADX's
// ADCX/ADOX, for CPUs that have both (feADX, set from CPUID at package
// initialization); on any other CPU both entry points jump to the Go
// bodies, feMulGeneric and feSqrNGeneric, which FuzzFieldOps holds
// them against. The arithmetic is the Go bodies' (p256fe.go): the
// Montgomery domain with −p⁻¹ ≡ 1 mod 2^64, so each reduction step adds
// the low limb m shifted, never multiplied,
//
//	(t + m·p)/2^64 = t/2^64 + m·2^32 + m·(2^64−2^32+1)·2^128,
//
// and a final subtraction of p selected by CMOV. No branch or memory
// address depends on an operand's value.

#include "textflag.h"

// REDUCE folds the low limb m = t0 of the accumulator t0..t5 away,
// leaving the quotient in t1..t5: the step above, m·2^32 as AX (low)
// and BX (high), m·(2^64−2^32+1) as t0 (low) and CX (high).
#define REDUCE(t0, t1, t2, t3, t4, t5) \
	MOVQ t0, AX  \
	SHLQ $32, AX \
	MOVQ t0, BX  \
	SHRQ $32, BX \
	MOVQ t0, CX  \
	SUBQ AX, t0  \
	SBBQ BX, CX  \
	ADDQ AX, t1  \
	ADCQ BX, t2  \
	ADCQ t0, t3  \
	ADCQ CX, t4  \
	ADCQ $0, t5

// MULROW adds DX·y, y the four limbs at DI, into t0..t4: the low words
// on the OF chain, the high words on the CF chain. The last high word
// is at most 2^64−2, so the OF chain's carry folds into it without
// overflow, and since the accumulator stays below 2p, the sum is below
// 2p + 2^64·p < 2^320: nothing carries out of t4. t5 is zeroed for the
// reduction's carry.
#define MULROW(t0, t1, t2, t3, t4, t5) \
	XORQ  t5, t5         \
	MULXQ 0(DI), AX, BX  \
	ADOXQ AX, t0         \
	ADCXQ BX, t1         \
	MULXQ 8(DI), AX, BX  \
	ADOXQ AX, t1         \
	ADCXQ BX, t2         \
	MULXQ 16(DI), AX, BX \
	ADOXQ AX, t2         \
	ADCXQ BX, t3         \
	MULXQ 24(DI), AX, BX \
	ADOXQ AX, t3         \
	ADOXQ t5, BX         \
	ADCXQ BX, t4

// SUBP sets a0..a3 to a0..a4 − p if that does not borrow (a4 is the
// fifth limb, 0 or 1), using b0..b3 for the difference and SI, DX for
// the constant limbs.
#define SUBP(a0, a1, a2, a3, a4, b0, b1, b2, b3) \
	MOVQ    a0, b0                  \
	MOVQ    a1, b1                  \
	MOVQ    a2, b2                  \
	MOVQ    a3, b3                  \
	MOVL    $0xffffffff, SI         \
	MOVQ    $0xffffffff00000001, DX \
	SUBQ    $-1, b0                 \
	SBBQ    SI, b1                  \
	SBBQ    $0, b2                  \
	SBBQ    DX, b3                  \
	SBBQ    $0, a4                  \
	CMOVQCC b0, a0                  \
	CMOVQCC b1, a1                  \
	CMOVQCC b2, a2                  \
	CMOVQCC b3, a3

// func feMul(z, x, y *fe)
TEXT ·feMul(SB), NOSPLIT, $0-24
	CMPB ·feADX(SB), $0
	JEQ  generic
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI

	// Row 0: t = x0·y in R8..R12, one carry chain.
	MOVQ  0(SI), DX
	MULXQ 0(DI), R8, R9
	MULXQ 8(DI), AX, R10
	ADDQ  AX, R9
	MULXQ 16(DI), AX, R11
	ADCQ  AX, R10
	MULXQ 24(DI), AX, R12
	ADCQ  AX, R11
	ADCQ  $0, R12
	XORQ  R13, R13
	REDUCE(R8, R9, R10, R11, R12, R13)

	// Rows 1..3, the accumulator's registers rotating by one a row.
	MOVQ 8(SI), DX
	MULROW(R9, R10, R11, R12, R13, R8)
	REDUCE(R9, R10, R11, R12, R13, R8)
	MOVQ 16(SI), DX
	MULROW(R10, R11, R12, R13, R8, R9)
	REDUCE(R10, R11, R12, R13, R8, R9)
	MOVQ 24(SI), DX
	MULROW(R11, R12, R13, R8, R9, R10)
	REDUCE(R11, R12, R13, R8, R9, R10)

	// R12, R13, R8, R9, R10 < 2p.
	SUBP(R12, R13, R8, R9, R10, AX, BX, CX, R11)
	MOVQ z+0(FP), DI
	MOVQ R12, 0(DI)
	MOVQ R13, 8(DI)
	MOVQ R8, 16(DI)
	MOVQ R9, 24(DI)
	RET

generic:
	JMP ·feMulGeneric(SB)

// SQRSTEP is one reduction step of the square's low half: m = t0 is
// folded into the window t1..t3 and the step's top limb replaces t0.
// The window stays below 2^256, so nothing carries out of it.
#define SQRSTEP(t0, t1, t2, t3) \
	MOVQ t0, AX  \
	SHLQ $32, AX \
	MOVQ t0, CX  \
	SHRQ $32, CX \
	MOVQ t0, DX  \
	SUBQ AX, DX  \
	SBBQ CX, t0  \
	ADDQ AX, t1  \
	ADCQ CX, t2  \
	ADCQ DX, t3  \
	ADCQ $0, t0

// func feSqrN(z, x *fe, n int)
TEXT ·feSqrN(SB), NOSPLIT, $0-24
	CMPB ·feADX(SB), $0
	JEQ  generic
	MOVQ z+0(FP), DI
	MOVQ x+8(FP), BX
	CMPQ n+16(FP), $0
	JLE  copy

	// Each squaring reads BX and writes z; BX is z from the second on.
loop:
	// The off-diagonal products x_i·x_j, i < j, in R9..R13, SI.
	MOVQ  0(BX), DX
	MULXQ 8(BX), R9, R10
	MULXQ 16(BX), AX, R11
	ADDQ  AX, R10
	MULXQ 24(BX), AX, R12
	ADCQ  AX, R11
	ADCQ  $0, R12
	MOVQ  8(BX), DX
	XORQ  R13, R13
	MULXQ 16(BX), AX, CX
	ADOXQ AX, R11
	ADCXQ CX, R12
	MULXQ 24(BX), AX, CX
	ADOXQ AX, R12
	ADOXQ R13, CX
	ADCXQ CX, R13
	MOVQ  16(BX), DX
	MULXQ 24(BX), AX, SI
	ADDQ  AX, R13
	ADCQ  $0, SI

	// Doubled on the CF chain, the squares x_i² added on the OF chain:
	// the 512-bit square in R8..R13, SI, R14.
	XORQ  R14, R14
	MOVQ  0(BX), DX
	MULXQ DX, R8, CX
	ADCXQ R9, R9
	ADOXQ CX, R9
	MOVQ  8(BX), DX
	MULXQ DX, AX, CX
	ADCXQ R10, R10
	ADOXQ AX, R10
	ADCXQ R11, R11
	ADOXQ CX, R11
	MOVQ  16(BX), DX
	MULXQ DX, AX, CX
	ADCXQ R12, R12
	ADOXQ AX, R12
	ADCXQ R13, R13
	ADOXQ CX, R13
	MOVQ  24(BX), DX
	MULXQ DX, AX, CX
	ADCXQ SI, SI
	ADOXQ AX, SI
	ADCXQ R14, R14
	ADOXQ CX, R14

	// Four reduction steps over the low half, then the high half added.
	SQRSTEP(R8, R9, R10, R11)
	SQRSTEP(R9, R10, R11, R8)
	SQRSTEP(R10, R11, R8, R9)
	SQRSTEP(R11, R8, R9, R10)
	XORQ AX, AX
	ADDQ R12, R8
	ADCQ R13, R9
	ADCQ SI, R10
	ADCQ R14, R11
	ADCQ $0, AX

	SUBP(R8, R9, R10, R11, AX, R12, R13, CX, R14)
	MOVQ R8, 0(DI)
	MOVQ R9, 8(DI)
	MOVQ R10, 16(DI)
	MOVQ R11, 24(DI)
	MOVQ DI, BX
	DECQ n+16(FP)
	JNZ  loop
	RET

	// n ≤ 0 is no squaring: z = x, as the Go body leaves it.
copy:
	MOVQ 0(BX), AX
	MOVQ AX, 0(DI)
	MOVQ 8(BX), AX
	MOVQ AX, 8(DI)
	MOVQ 16(BX), AX
	MOVQ AX, 16(DI)
	MOVQ 24(BX), AX
	MOVQ AX, 24(DI)
	RET

generic:
	JMP ·feSqrNGeneric(SB)

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET
