package group

import (
	"fmt"
	"math/big"
	"testing"
)

// checkFeInv holds feInv on a's raw limbs (a = x·2^256 for the element
// x) to math/big: the result's limbs must be x⁻¹·2^256, x·x⁻¹ must be
// 1, and both must hold with z aliasing x.
func checkFeInv(t *testing.T, a *big.Int) {
	t.Helper()
	a = new(big.Int).Mod(a, fePrime)
	if a.Sign() == 0 {
		return
	}
	x := new(big.Int).Mul(a, rInv)
	want := new(big.Int).ModInverse(x.Mod(x, fePrime), fePrime)
	want.Lsh(want, 256).Mod(want, fePrime)

	fa := feRawFromBig(a)
	var z, one fe
	feInv(&z, &fa)
	if feRawBig(&z).Cmp(want) != 0 {
		t.Fatalf("feInv(%#x) = %#x, want %#x", a, feRawBig(&z), want)
	}
	if feMul(&one, &fa, &z); one != feOne {
		t.Fatalf("%#x times its inverse is %#x", a, feRawBig(&one))
	}
	z = fa
	feInv(&z, &z)
	if feRawBig(&z).Cmp(want) != 0 {
		t.Fatalf("feInv(%#x) in place = %#x, want %#x", a, feRawBig(&z), want)
	}
}

// feInvSeeds are FuzzFeInv's seeds: the field's edges, 1 and p−1, the
// powers of two at the inversion's limb boundaries and the top bit,
// R and R⁻¹, runs of ones across limb boundaries, and a spread of
// hashed values.
func feInvSeeds() []*big.Int {
	one := big.NewInt(1)
	pow := func(k uint) *big.Int { return new(big.Int).Lsh(one, k) }
	ones := func(lo, hi uint) *big.Int { // bits lo..hi−1 set
		return new(big.Int).Lsh(new(big.Int).Sub(pow(hi-lo), one), lo)
	}
	seeds := append(fieldEdges(),
		one,
		new(big.Int).Sub(fePrime, one),
		feRawBig(&feOne),
		rInv,
		ones(0, 62), ones(0, 124), ones(0, 200), ones(0, 255), ones(0, 256),
		ones(60, 190), ones(62, 124), ones(124, 186), ones(186, 248), ones(100, 256),
	)
	for _, k := range []uint{62, 124, 186, 248, 255} {
		seeds = append(seeds, pow(k), new(big.Int).Sub(pow(k), one), new(big.Int).Add(pow(k), one))
	}
	for i := range 64 {
		seeds = append(seeds, new(big.Int).SetBytes(HashToScalar(fmt.Sprintf("feinv/%d", i)).Bytes()))
	}
	return seeds
}

// FuzzFeInv is the differential fuzz of the field inversion against
// math/big: 32 input bytes, reduced mod p, are an element's raw limbs
// (a zero skips).
func FuzzFeInv(f *testing.F) {
	for _, v := range feInvSeeds() {
		f.Add(v.FillBytes(make([]byte, 32)))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) > 32 {
			t.Skip()
		}
		checkFeInv(t, new(big.Int).SetBytes(b))
	})
}

// TestFeInvZero: zero has no inverse, and feInv says so by panicking
// rather than returning a value a caller could carry on with.
func TestFeInvZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("feInv of zero returned")
		}
	}()
	var z, zero fe
	feInv(&z, &zero)
}
