package group

import (
	"encoding/binary"
	"math/big"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// The field multiply and square have two bodies, the MULX/ADX assembly
// on amd64 and the Go ones everywhere; these tests hold both to
// math/big on raw limbs — no Montgomery conversion, which would itself
// run on feMul — and check that the assembly is the body that runs
// whenever the CPU can run it.

// feRawBig is x's limbs as an integer, the Montgomery factor left in.
func feRawBig(x *fe) *big.Int {
	var b [32]byte
	for i := 0; i < 4; i++ {
		binary.BigEndian.PutUint64(b[24-8*i:], x[i])
	}
	return new(big.Int).SetBytes(b[:])
}

// feRawFromBig is v's limbs, v < p.
func feRawFromBig(v *big.Int) fe {
	var b [32]byte
	return fe(limbsFromBytes(v.FillBytes(b[:])))
}

// rInv is 2^−256 mod p.
var rInv = new(big.Int).ModInverse(new(big.Int).Lsh(big.NewInt(1), 256), fePrime)

// montMul is x·y·2^−256 mod p: what feMul computes on raw limbs.
func montMul(x, y *big.Int) *big.Int {
	z := new(big.Int).Mul(x, y)
	z.Mul(z, rInv)
	return z.Mod(z, fePrime)
}

// fieldBodies are the multiply/square pairs under test: the dispatched
// entry points (the assembly when feADX) and the Go bodies by name.
var fieldBodies = []struct {
	name string
	mul  func(z, x, y *fe)
	sqrN func(z, x *fe, n int)
}{
	{"dispatched", feMul, feSqrN},
	{"generic", feMulGeneric, feSqrNGeneric},
}

// checkFieldOps runs both bodies' feMul on a·b under every aliasing
// (z=x, z=y, x=y) and feSqrN for n squarings of a, in place and not,
// against montMul.
func checkFieldOps(t *testing.T, a, b *big.Int, n int) {
	t.Helper()
	a = new(big.Int).Mod(a, fePrime)
	b = new(big.Int).Mod(b, fePrime)
	fa, fb := feRawFromBig(a), feRawFromBig(b)
	ab, aa := montMul(a, b), montMul(a, a)
	sq := new(big.Int).Set(a)
	for i := 0; i < n; i++ {
		sq = montMul(sq, sq)
	}
	for _, f := range fieldBodies {
		check := func(op string, got fe, want *big.Int) {
			t.Helper()
			if feRawBig(&got).Cmp(want) != 0 {
				t.Fatalf("%s %s: a = %#x, b = %#x, n = %d: got %#x, want %#x", f.name, op, a, b, n, feRawBig(&got), want)
			}
		}
		var z fe
		f.mul(&z, &fa, &fb)
		check("mul", z, ab)
		z = fa
		f.mul(&z, &z, &fb)
		check("mul z=x", z, ab)
		z = fb
		f.mul(&z, &fa, &z)
		check("mul z=y", z, ab)
		f.mul(&z, &fa, &fa)
		check("mul x=y", z, aa)
		z = fa
		f.mul(&z, &z, &z)
		check("mul z=x=y", z, aa)

		f.sqrN(&z, &fa, n)
		check("sqrN", z, sq)
		z = fa
		f.sqrN(&z, &z, n)
		check("sqrN z=x", z, sq)
	}
}

// fieldEdges are the operands whose carries and final subtraction a
// reduction gets wrong first: 0, 1, 2, p−1, p−2, p>>1, R = 2^256 mod p
// (feOne's raw limbs), the largest values below p with the top limb
// short of p's, and inputs whose top limb is all ones (reduced mod p
// like any fuzz input).
func fieldEdges() []*big.Int {
	p := fePrime
	hex := func(s string) *big.Int { v, _ := new(big.Int).SetString(s, 16); return v }
	return []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		big.NewInt(2),
		new(big.Int).Sub(p, big.NewInt(1)),
		new(big.Int).Sub(p, big.NewInt(2)),
		new(big.Int).Rsh(p, 1),
		feRawBig(&feOne),
		hex("ffffffff00000000ffffffffffffffffffffffffffffffffffffffffffffffff"),
		hex("ffffffff000000010000000000000000000000000000000000000000fffffffe"),
		hex("ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff"),
		hex("ffffffffffffffff000000000000000000000000000000000000000000000000"),
		hex("ffffffffffffffff0000000000000000ffffffffffffffff0000000000000001"),
	}
}

// FuzzFieldOps holds feMul and feSqrN, the assembly where it runs and
// the Go bodies everywhere, to math/big: a and b are 32 big-endian bytes
// reduced mod p, n picks 1–300 squarings. The seeds pair every two edge
// operands, with the square counts feSqrt's chain uses among them.
func FuzzFieldOps(f *testing.F) {
	edges := fieldEdges()
	for i, a := range edges {
		for j, b := range edges {
			n := []uint16{0, 1, 2, 30, 93, 95, 254, 299}[(i+j)%8]
			f.Add(a.FillBytes(make([]byte, 32)), b.FillBytes(make([]byte, 32)), n)
		}
	}
	f.Fuzz(func(t *testing.T, a, b []byte, n uint16) {
		if len(a) > 32 || len(b) > 32 {
			t.Skip()
		}
		checkFieldOps(t, new(big.Int).SetBytes(a), new(big.Int).SetBytes(b), 1+int(n)%300)
	})
}

// cpuinfoHasADX reads BMI2 and ADX from /proc/cpuinfo's flags: the
// kernel's CPUID, independent of the package's. ok is false where the
// file is not there.
func cpuinfoHasADX() (has, ok bool) {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return false, false
	}
	for _, line := range strings.Split(string(b), "\n") {
		name, flags, found := strings.Cut(line, ":")
		if found && strings.TrimSpace(name) == "flags" {
			f := strings.Fields(flags)
			return slices.Contains(f, "bmi2") && slices.Contains(f, "adx"), true
		}
	}
	return false, false
}

// TestFieldDispatch pins the selection: the assembly runs whenever the
// CPU has BMI2 and ADX (a broken CPUID check would otherwise fall back
// silently, visible only in a benchmark), never off amd64, and with the
// selection forced to the Go bodies the known-answer checks of BatchMul,
// the ladder and BatchDH still pass.
func TestFieldDispatch(t *testing.T) {
	switch has, ok := cpuinfoHasADX(); {
	case runtime.GOARCH != "amd64":
		if feADX {
			t.Fatalf("feADX set on %s", runtime.GOARCH)
		}
	case !ok:
		t.Logf("no /proc/cpuinfo to check feADX = %v against", feADX)
	case feADX != has:
		t.Fatalf("feADX = %v, but /proc/cpuinfo says BMI2+ADX = %v", feADX, has)
	}

	if !feADX {
		return // every other test already runs on the Go bodies
	}
	feADX = false
	t.Cleanup(func() { feADX = true })
	t.Run("generic/BatchMul", TestBatchMulMatchesMul)
	t.Run("generic/Ladder", TestLadderMatchesStdlib)
	t.Run("generic/BatchDH", TestBatchDHMatchesDH)
}
