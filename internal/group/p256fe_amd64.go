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
