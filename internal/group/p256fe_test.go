package group

import (
	"encoding/binary"
	"fmt"
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

// fePrime is p, the modulus of every math/big oracle here:
// crypto/elliptic's.
var fePrime = curve.Params().P

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

// cpuinfoHas reports whether /proc/cpuinfo's flags list every one of
// names: the kernel's CPUID, independent of the package's. ok is false
// where the file is not there.
func cpuinfoHas(names ...string) (has, ok bool) {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return false, false
	}
	for _, line := range strings.Split(string(b), "\n") {
		name, flags, found := strings.Cut(line, ":")
		if found && strings.TrimSpace(name) == "flags" {
			f := strings.Fields(flags)
			for _, n := range names {
				if !slices.Contains(f, n) {
					return false, true
				}
			}
			return true, true
		}
	}
	return false, false
}

// TestFieldDispatch pins the selections: the MULX/ADX assembly runs
// whenever the CPU has BMI2 and ADX, and the eight-lane bodies of
// BatchMul's kernel and of the tree sum whenever it has AVX-512F and
// IFMA (a broken CPUID check would otherwise fall back silently,
// visible only in a benchmark); neither off amd64. With each forced
// off, the known-answer checks of what runs on it pass again: BatchMul,
// the ladder and BatchDH on the Go field bodies, and the kernel's and
// the tree's own tests on the scalar kernel and tree.
func TestFieldDispatch(t *testing.T) {
	for _, sel := range []struct {
		name  string
		on    bool
		flags []string
	}{
		{"feADX", feADX, []string{"bmi2", "adx"}},
		{"feIFMA", feIFMA, []string{"avx512f", "avx512ifma"}},
	} {
		switch has, ok := cpuinfoHas(sel.flags...); {
		case runtime.GOARCH != "amd64":
			if sel.on {
				t.Fatalf("%s set on %s", sel.name, runtime.GOARCH)
			}
		case !ok:
			t.Logf("no /proc/cpuinfo to check %s = %v against", sel.name, sel.on)
		case sel.on != has:
			t.Fatalf("%s = %v, but /proc/cpuinfo says %v = %v", sel.name, sel.on, sel.flags, has)
		}
	}
	if feIFMA {
		t.Log("kernel: ifma")
	} else {
		t.Log("kernel: scalar")
	}

	if feIFMA {
		feIFMA = false
		t.Run("scalar/BatchMul", TestBatchMulMatchesMul)
		t.Run("scalar/BatchMulCost", TestBatchMulCost)
		t.Run("scalar/KernelAdd", TestBatchKernelAdd)
		t.Run("scalar/KernelDouble", TestBatchKernelDouble)
		t.Run("scalar/FuzzBatchMulSeeds", func(t *testing.T) {
			for i, in := range fuzzBatchMulSeeds() {
				checkFuzzBatchMul(t, fmt.Sprintf("seed#%d", i), in)
			}
		})
		t.Run("scalar/BatchDH", TestBatchDHMatchesDH)
		t.Run("scalar/TreeSumExceptionalRuns", TestTreeSumExceptionalRuns)
		t.Run("scalar/TreeSumSharedSlot", TestTreeSumSharedSlot)
		t.Run("scalar/TreeSumFoldFallback", TestTreeSumFoldFallback)
		t.Run("scalar/BatchBaseTreeFallback", TestBatchBaseTreeFallback)
		t.Run("scalar/KeyTableExceptionalPaths", TestKeyTableExceptionalPaths)
		t.Run("scalar/FuzzBatchDHSeeds", func(t *testing.T) {
			for _, in := range fuzzBatchDHSeeds() {
				checkFuzzBatchDH(t, in.key, in.s1, in.s2, in.lanes)
			}
		})
		feIFMA = true
	}
	if feADX {
		feADX = false
		t.Cleanup(func() { feADX = true })
		t.Run("generic/BatchMul", TestBatchMulMatchesMul)
		t.Run("generic/Ladder", TestLadderMatchesStdlib)
		t.Run("generic/BatchDH", TestBatchDHMatchesDH)
	}
}

// The eight-lane primitives of p256fe8_amd64.s, held to math/big on
// raw limbs like the scalar ones: a lane's value is Σ limb_j·2^(52j),
// any value below 2p is an input, and every output must be below 2p
// with each limb below 2^52.

var (
	twoP    = new(big.Int).Lsh(fePrime, 1)
	r260Inv = new(big.Int).ModInverse(new(big.Int).Lsh(big.NewInt(1), 260), fePrime)
)

func fe8LaneBig(x *fe8, l int) *big.Int {
	v := new(big.Int)
	for j := 4; j >= 0; j-- {
		v.Lsh(v, 52)
		v.Add(v, new(big.Int).SetUint64(x[j][l]))
	}
	return v
}

func fe8SetLaneBig(x *fe8, l int, v *big.Int) {
	w := new(big.Int).Set(v)
	mask := big.NewInt(fe8Mask)
	for j := range 5 {
		x[j][l] = new(big.Int).And(w, mask).Uint64()
		w.Rsh(w, 52)
	}
}

// checkFe8Lanes fails unless every lane of got is below 2p, has every
// limb below 2^52, and is ≡ want(lane) mod p.
func checkFe8Lanes(t *testing.T, op string, got *fe8, want func(l int) *big.Int) {
	t.Helper()
	for l := range 8 {
		for j := range 5 {
			if got[j][l] > fe8Mask {
				t.Fatalf("%s lane %d: limb %d is %#x, past 52 bits", op, l, j, got[j][l])
			}
		}
		v := fe8LaneBig(got, l)
		w := new(big.Int).Mod(want(l), fePrime)
		if v.Cmp(twoP) >= 0 || new(big.Int).Mod(v, fePrime).Cmp(w) != 0 {
			t.Fatalf("%s lane %d: got %#x, want %#x mod p, below 2p", op, l, v, w)
		}
	}
}

// checkFieldOps8 runs fe8Mul, fe8MulConst, fe8Sub and fe8Neg on eight
// lanes spread around a and b (below 2p; the last lane has x = y), and
// a chain of n multiplications, against math/big.
func checkFieldOps8(t *testing.T, a, b *big.Int, n int) {
	t.Helper()
	a = new(big.Int).Mod(a, twoP)
	b = new(big.Int).Mod(b, twoP)
	var x, y fe8
	xs, ys := make([]*big.Int, 8), make([]*big.Int, 8)
	step := new(big.Int).Rsh(fePrime, 3)
	for l := range 8 {
		d := new(big.Int).Mul(step, big.NewInt(int64(l)))
		xs[l] = new(big.Int).Mod(new(big.Int).Add(a, d), twoP)
		ys[l] = new(big.Int).Mod(new(big.Int).Sub(b, d), twoP)
		if l == 7 {
			ys[l] = xs[l]
		}
		fe8SetLaneBig(&x, l, xs[l])
		fe8SetLaneBig(&y, l, ys[l])
	}
	mont := func(u, v *big.Int) *big.Int {
		z := new(big.Int).Mul(u, v)
		return z.Mul(z, r260Inv)
	}

	var z fe8
	fe8Mul(&z, &x, &y)
	checkFe8Lanes(t, "mul", &z, func(l int) *big.Int { return mont(xs[l], ys[l]) })
	z = x
	fe8Mul(&z, &z, &z)
	checkFe8Lanes(t, "mul z=x=y", &z, func(l int) *big.Int { return mont(xs[l], xs[l]) })
	var c [5]uint64
	for j := range c {
		c[j] = y[j][0]
	}
	fe8MulConst(&z, &x, &c)
	checkFe8Lanes(t, "mulConst", &z, func(l int) *big.Int { return mont(xs[l], ys[0]) })
	fe8Sub(&z, &x, &y)
	checkFe8Lanes(t, "sub", &z, func(l int) *big.Int { return new(big.Int).Sub(xs[l], ys[l]) })
	z = y
	fe8Sub(&z, &x, &z)
	checkFe8Lanes(t, "sub z=y", &z, func(l int) *big.Int { return new(big.Int).Sub(xs[l], ys[l]) })
	fe8Neg(&z, &x)
	checkFe8Lanes(t, "neg", &z, func(l int) *big.Int { return new(big.Int).Neg(xs[l]) })

	z = x
	want := slices.Clone(xs)
	for range n {
		fe8Mul(&z, &z, &y)
		for l := range want {
			want[l] = new(big.Int).Mod(mont(want[l], ys[l]), fePrime)
		}
	}
	checkFe8Lanes(t, fmt.Sprintf("%d-step chain", n), &z, func(l int) *big.Int { return want[l] })
}

// checkFe8RoundTrip holds the conversions: an fe put into a lane comes
// back bit for bit, a lane holding v + p comes back as v, and the
// eight-lane multiply of converted values converts back to feMul's.
func checkFe8RoundTrip(t *testing.T, a, b *big.Int) {
	t.Helper()
	fa, fb := feRawFromBig(new(big.Int).Mod(a, fePrime)), feRawFromBig(new(big.Int).Mod(b, fePrime))
	var x, y fe8
	for l := range 8 {
		fe8Put(&x, l, &fa)
		fe8Put(&y, l, &fb)
	}
	if got := fe8Get(&x, 3); got != fa {
		t.Fatalf("round trip of %#x gives %#x", feRawBig(&fa), feRawBig(&got))
	}
	fe8SetLaneBig(&x, 5, new(big.Int).Add(fe8LaneBig(&x, 5), fePrime))
	if got := fe8Get(&x, 5); got != fa {
		t.Fatalf("lane holding %#x + p comes back as %#x", feRawBig(&fa), feRawBig(&got))
	}
	if !feIFMA {
		return
	}
	var z fe8
	var want fe
	fe8Mul(&z, &x, &y)
	feMul(&want, &fa, &fb)
	if got := fe8Get(&z, 0); got != want {
		t.Fatalf("fe8Mul of %#x, %#x converts to %#x, feMul gives %#x", feRawBig(&fa), feRawBig(&fb), feRawBig(&got), feRawBig(&want))
	}
}

// FuzzFieldOps8 holds the eight-lane primitives to math/big and the
// conversions to themselves: a and b are 33 big-endian bytes taken mod
// 2p, n picks a 1–1000-step multiply chain. The seeds are 0, 1, p−1,
// p−2, R = 2^260 mod p, 2p−1 and equal operands, one with a
// 1000-step chain. Without IFMA only the conversions run.
func FuzzFieldOps8(f *testing.F) {
	p := fePrime
	r := new(big.Int).Mod(new(big.Int).Lsh(big.NewInt(1), 260), p)
	edges := []*big.Int{
		big.NewInt(0), big.NewInt(1),
		new(big.Int).Sub(p, big.NewInt(1)), new(big.Int).Sub(p, big.NewInt(2)),
		r, new(big.Int).Sub(twoP, big.NewInt(1)),
	}
	for i, a := range edges {
		for j, b := range edges {
			f.Add(a.FillBytes(make([]byte, 33)), b.FillBytes(make([]byte, 33)), uint16(i+j))
		}
	}
	f.Add(r.FillBytes(make([]byte, 33)), p.FillBytes(make([]byte, 33)), uint16(999))
	f.Fuzz(func(t *testing.T, a, b []byte, n uint16) {
		if len(a) > 33 || len(b) > 33 {
			t.Skip()
		}
		av, bv := new(big.Int).SetBytes(a), new(big.Int).SetBytes(b)
		checkFe8RoundTrip(t, av, bv)
		if feIFMA {
			checkFieldOps8(t, av, bv, 1+int(n)%1000)
		}
	})
}

// TestFe8InvChain holds the eight-lane inversion chain to feInv lane by
// lane: twenty pushes whose lanes are spread over [0, 2p) — half of
// them p above a value below p, which the handoff to feInv must
// reduce — come back as their inverses, invert allocates nothing, and
// a zero lane is reported as its slot instead of inverted.
func TestFe8InvChain(t *testing.T) {
	if !feIFMA {
		t.Skip("no IFMA")
	}
	var ds [20]fe8
	for i := range ds {
		for l := range 8 {
			v := new(big.Int).SetBytes(HashToScalar(fmt.Sprintf("fe8invchain/%d/%d", i, l)).Bytes())
			v.Mod(v, fePrime)
			if v.Sign() == 0 {
				v.SetInt64(1)
			}
			if (i+l)%2 == 1 {
				v.Add(v, fePrime) // in [p, 2p)
			}
			fe8SetLaneBig(&ds[i], l, v)
		}
	}
	buf := make([]fe8, len(ds)+1)
	var c fe8InvChain
	c.reset(buf)
	for i := range ds {
		c.push(&ds[i])
	}
	if zero := c.invert(); zero != 0 {
		t.Fatalf("invert reports zero totals in slots %08b", zero)
	}
	for i := len(ds) - 1; i >= 0; i-- {
		var dinv fe8
		c.inverse(&dinv)
		c.drop(&ds[i])
		for l := range 8 {
			var want fe
			d := fe8Get(&ds[i], l)
			feInv(&want, &d)
			if got := fe8Get(&dinv, l); got != want {
				t.Fatalf("push %d lane %d: inverse %#x, feInv gives %#x", i, l, feRawBig(&got), feRawBig(&want))
			}
		}
	}
	if allocs := testing.AllocsPerRun(10, func() {
		c.reset(buf)
		for i := range ds {
			c.push(&ds[i])
		}
		c.invert()
	}); allocs != 0 {
		t.Fatalf("a chain of %d pushes allocates %v objects", len(ds), allocs)
	}
	ds[7][0][5], ds[7][1][5], ds[7][2][5], ds[7][3][5], ds[7][4][5] = fe8P[0], fe8P[1], fe8P[2], fe8P[3], fe8P[4]
	c.reset(buf)
	for i := range ds {
		c.push(&ds[i])
	}
	if zero := c.invert(); zero != 1<<5 {
		t.Fatalf("a lane holding p: invert reports slots %08b, want %08b", zero, 1<<5)
	}
}
