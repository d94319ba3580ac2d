package group

// feMul sets z = x·y·2^−256 mod p (Montgomery product); feSqrN sets
// z = x^(2^n), n ≥ 1. Both are in p256fe_amd64.s and jump to
// feMulGeneric/feSqrNGeneric when feADX is false.
//
//go:noescape
func feMul(z, x, y *fe)

//go:noescape
func feSqrN(z, x *fe, n int)

// cpuid executes CPUID with EAX = leaf and ECX = sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// feHasADX reports whether the CPU has BMI2 (MULX) and ADX (ADCX,
// ADOX): CPUID leaf 7, sub-leaf 0, EBX bits 8 and 19.
func feHasADX() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	const bmi2, adx = 1 << 8, 1 << 19
	return ebx&bmi2 != 0 && ebx&adx != 0
}

// fe8Mul sets z = x·y·2^−260 and fe8MulConst z = x·c·2^−260, c one
// lane's limbs broadcast to all eight; fe8Sub sets z = x − y and fe8Neg
// z = −x. All four are in p256fe8_amd64.s, run only when feIFMA, and
// take and return values below 2p (fe8Mul and fe8MulConst accept up
// to 4p).
//
//go:noescape
func fe8Mul(z, x, y *fe8)

//go:noescape
func fe8MulConst(z, x *fe8, c *[5]uint64)

//go:noescape
func fe8Sub(z, x, y *fe8)

//go:noescape
func fe8Neg(z, x *fe8)

// xgetbv returns XCR0, the state components the OS saves.
func xgetbv() (eax, edx uint32)

// feHasIFMA reports whether the CPU has AVX-512F and AVX-512 IFMA
// (CPUID leaf 7, sub-leaf 0, EBX bits 16 and 21) and the OS saves
// their state: OSXSAVE (leaf 1 ECX bit 27), and XCR0's SSE, AVX,
// opmask and both ZMM components (bits 1, 2, 5, 6, 7).
func feHasIFMA() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave = 1 << 27
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 {
		return false
	}
	const zmmState = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	if xcr0, _ := xgetbv(); xcr0&zmmState != zmmState {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	const avx512f, avx512ifma = 1 << 16, 1 << 21
	return ebx&avx512f != 0 && ebx&avx512ifma != 0
}
