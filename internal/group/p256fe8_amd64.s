// Eight P-256 field elements at once on AVX-512 IFMA (VPMADD52LUQ,
// VPMADD52HUQ), for CPUs that have it (feIFMA, set from CPUID and
// XGETBV at package initialization; nothing here runs otherwise). An
// fe8 (p256fe8.go) is five 52-bit limbs of eight lanes, limb-major: a
// ZMM register is one limb of every lane. Values are kept below 2p with
// every limb below 2^52, in the Montgomery domain with R = 2^260; p's
// lowest limb is 2^52−1, so −p⁻¹ ≡ 1 mod 2^52 and a reduction step's
// quotient is the accumulator's low limb, as in feMul.
//
// Every function loads all of its operands before it stores, so any
// aliasing of z, x and y is allowed; none branches or forms an address
// from an operand's value, and each ends in VZEROUPPER.

#include "textflag.h"

// p in radix 2^52: 2^52−1, 2^44−1, 0, 2^36, 2^48−2^16; and 2p.
#define P0 $0xfffffffffffff
#define P1 $0xfffffffffff
#define P3 $0x1000000000
#define P4 $0xffffffff0000
#define TWOP0 $0xffffffffffffe
#define TWOP1 $0x1fffffffffff
#define TWOP3 $0x2000000000
#define TWOP4 $0x1fffffffe0000

// Z30 is the limb mask 2^52−1 in every lane.
#define LOADMASK \
	MOVQ         P0, AX \
	VPBROADCASTQ AX, Z30

// MULROUND adds x_i·y (x_i in Z5, y's limbs in Z0–Z4) into the
// accumulator a0..a5, folds a0 away with one reduction step and leaves
// a0 zero for the next round's a5. p's limbs 1, 3 and 4 are Z21, Z23
// and Z24. The step adds m·p: its lowest limb, m·(2^52−1), cancels
// a0's low 52 bits and carries (a0>>52) + m into a1 without a
// multiply, and limb 2 of p is zero. Every accumulator limb gets at
// most four terms below 2^52 a round and a small carry, so none passes
// 2^57 in five.
#define MULROUND(a0, a1, a2, a3, a4, a5) \
	VPMADD52LUQ Z0, Z5, a0  \
	VPMADD52HUQ Z0, Z5, a1  \
	VPMADD52LUQ Z1, Z5, a1  \
	VPMADD52HUQ Z1, Z5, a2  \
	VPMADD52LUQ Z2, Z5, a2  \
	VPMADD52HUQ Z2, Z5, a3  \
	VPMADD52LUQ Z3, Z5, a3  \
	VPMADD52HUQ Z3, Z5, a4  \
	VPMADD52LUQ Z4, Z5, a4  \
	VPMADD52HUQ Z4, Z5, a5  \
	VPANDQ      Z30, a0, Z6 \
	VPSRLQ      $52, a0, a0 \
	VPADDQ      Z6, a1, a1  \
	VPADDQ      a0, a1, a1  \
	VPMADD52LUQ Z21, Z6, a1 \
	VPMADD52HUQ Z21, Z6, a2 \
	VPMADD52LUQ Z23, Z6, a3 \
	VPMADD52HUQ Z23, Z6, a4 \
	VPMADD52LUQ Z24, Z6, a4 \
	VPMADD52HUQ Z24, Z6, a5 \
	VPXORQ      a0, a0, a0

// CARRY moves a's bits above 52 into b, arithmetically: a limb may be
// negative after a subtraction.
#define CARRY(a, b) \
	VPSRAQ $52, a, Z9 \
	VPANDQ Z30, a, a  \
	VPADDQ Z9, b, b

// MULBODY sets Z15, Z10–Z13 to x·y·2^−260 for x at SI and y's limbs
// already in Z0–Z4. With x, y < 4p the result is below
// 16p²/2^260 + p < 2p, since p < 2^256; the final carries leave every
// limb below 2^52.
#define MULBODY \
	LOADMASK                       \
	MOVQ         P1, AX            \
	VPBROADCASTQ AX, Z21           \
	MOVQ         P3, AX            \
	VPBROADCASTQ AX, Z23           \
	MOVQ         P4, AX            \
	VPBROADCASTQ AX, Z24           \
	VPXORQ       Z10, Z10, Z10     \
	VPXORQ       Z11, Z11, Z11     \
	VPXORQ       Z12, Z12, Z12     \
	VPXORQ       Z13, Z13, Z13     \
	VPXORQ       Z14, Z14, Z14     \
	VPXORQ       Z15, Z15, Z15     \
	VMOVDQU64    0(SI), Z5         \
	MULROUND(Z10, Z11, Z12, Z13, Z14, Z15) \
	VMOVDQU64    64(SI), Z5        \
	MULROUND(Z11, Z12, Z13, Z14, Z15, Z10) \
	VMOVDQU64    128(SI), Z5       \
	MULROUND(Z12, Z13, Z14, Z15, Z10, Z11) \
	VMOVDQU64    192(SI), Z5       \
	MULROUND(Z13, Z14, Z15, Z10, Z11, Z12) \
	VMOVDQU64    256(SI), Z5       \
	MULROUND(Z14, Z15, Z10, Z11, Z12, Z13) \
	CARRY(Z15, Z10)                \
	CARRY(Z10, Z11)                \
	CARRY(Z11, Z12)                \
	CARRY(Z12, Z13)

// STORE writes five limb registers to z at DX.
#define STORE(l0, l1, l2, l3, l4) \
	VMOVDQU64 l0, 0(DX)   \
	VMOVDQU64 l1, 64(DX)  \
	VMOVDQU64 l2, 128(DX) \
	VMOVDQU64 l3, 192(DX) \
	VMOVDQU64 l4, 256(DX)

// func fe8Mul(z, x, y *fe8)
TEXT ·fe8Mul(SB), NOSPLIT, $0-24
	MOVQ      x+8(FP), SI
	MOVQ      y+16(FP), DI
	MOVQ      z+0(FP), DX
	VMOVDQU64 0(DI), Z0
	VMOVDQU64 64(DI), Z1
	VMOVDQU64 128(DI), Z2
	VMOVDQU64 192(DI), Z3
	VMOVDQU64 256(DI), Z4
	MULBODY
	STORE(Z15, Z10, Z11, Z12, Z13)
	VZEROUPPER
	RET

// func fe8MulConst(z, x *fe8, c *[5]uint64)
TEXT ·fe8MulConst(SB), NOSPLIT, $0-24
	MOVQ         x+8(FP), SI
	MOVQ         c+16(FP), DI
	MOVQ         z+0(FP), DX
	VPBROADCASTQ 0(DI), Z0
	VPBROADCASTQ 8(DI), Z1
	VPBROADCASTQ 16(DI), Z2
	VPBROADCASTQ 24(DI), Z3
	VPBROADCASTQ 32(DI), Z4
	MULBODY
	STORE(Z15, Z10, Z11, Z12, Z13)
	VZEROUPPER
	RET

// SUBBODY brings the limb differences in Z0–Z4, a value in (−2p, 2p),
// into [0, 2p): the borrows are carried up, the top limb's sign
// selects 2p or zero, and that is added and carried again.
#define SUBBODY \
	LOADMASK                    \
	CARRY(Z0, Z1)               \
	CARRY(Z1, Z2)               \
	CARRY(Z2, Z3)               \
	CARRY(Z3, Z4)               \
	VPSRAQ       $63, Z4, Z8    \
	MOVQ         TWOP0, AX      \
	VPBROADCASTQ AX, Z20        \
	VPANDQ       Z8, Z20, Z20   \
	VPADDQ       Z20, Z0, Z0    \
	MOVQ         TWOP1, AX      \
	VPBROADCASTQ AX, Z21        \
	VPANDQ       Z8, Z21, Z21   \
	VPADDQ       Z21, Z1, Z1    \
	MOVQ         TWOP3, AX      \
	VPBROADCASTQ AX, Z23        \
	VPANDQ       Z8, Z23, Z23   \
	VPADDQ       Z23, Z3, Z3    \
	MOVQ         TWOP4, AX      \
	VPBROADCASTQ AX, Z24        \
	VPANDQ       Z8, Z24, Z24   \
	VPADDQ       Z24, Z4, Z4    \
	CARRY(Z0, Z1)               \
	CARRY(Z1, Z2)               \
	CARRY(Z2, Z3)               \
	CARRY(Z3, Z4)

// func fe8Sub(z, x, y *fe8)
TEXT ·fe8Sub(SB), NOSPLIT, $0-24
	MOVQ      x+8(FP), SI
	MOVQ      y+16(FP), DI
	MOVQ      z+0(FP), DX
	VMOVDQU64 0(SI), Z0
	VMOVDQU64 64(SI), Z1
	VMOVDQU64 128(SI), Z2
	VMOVDQU64 192(SI), Z3
	VMOVDQU64 256(SI), Z4
	VPSUBQ    0(DI), Z0, Z0
	VPSUBQ    64(DI), Z1, Z1
	VPSUBQ    128(DI), Z2, Z2
	VPSUBQ    192(DI), Z3, Z3
	VPSUBQ    256(DI), Z4, Z4
	SUBBODY
	STORE(Z0, Z1, Z2, Z3, Z4)
	VZEROUPPER
	RET

// func fe8Neg(z, x *fe8)
TEXT ·fe8Neg(SB), NOSPLIT, $0-16
	MOVQ   x+8(FP), DI
	MOVQ   z+0(FP), DX
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPSUBQ 0(DI), Z0, Z0
	VPSUBQ 64(DI), Z1, Z1
	VPSUBQ 128(DI), Z2, Z2
	VPSUBQ 192(DI), Z3, Z3
	VPSUBQ 256(DI), Z4, Z4
	SUBBODY
	STORE(Z0, Z1, Z2, Z3, Z4)
	VZEROUPPER
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL   $0, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	MOVL   DX, edx+4(FP)
	RET
