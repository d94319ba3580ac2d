package group

import (
	"crypto/elliptic"
	"math/big"
	"testing"
)

// The tests' view of the representation: crypto/elliptic as the
// reference curve, and the big.Int conversions the package itself no
// longer has.

var curve = elliptic.P256()

// feFromBig converts a reduced big.Int into the Montgomery domain.
func feFromBig(v *big.Int) fe {
	var b [32]byte
	z, ok := feFromBytes(v.FillBytes(b[:]))
	if !ok {
		panic("feFromBig: value not below p")
	}
	return z
}

// toBig leaves the Montgomery domain and returns the standard value.
func (x *fe) toBig() *big.Int {
	var b [32]byte
	x.putBytes(b[:])
	return new(big.Int).SetBytes(b[:])
}

// bigX and bigY are a non-identity point's standard coordinates, as
// crypto/elliptic's functions take and return them.
func (p Point) bigX() *big.Int { return p.x.toBig() }
func (p Point) bigY() *big.Int { return p.y.toBig() }

// pointFromBig is the Point at crypto/elliptic's (x, y), whose (0, 0) is
// the identity here as well.
func pointFromBig(x, y *big.Int) Point { return affine(feFromBig(x), feFromBig(y)) }

// TestConstantsMatchStdlib: every hand-written constant of the package
// against crypto/elliptic's parameters.
func TestConstantsMatchStdlib(t *testing.T) {
	params := curve.Params()
	r := new(big.Int).Lsh(big.NewInt(1), 256)
	for _, c := range []struct {
		name      string
		got, want *big.Int
	}{
		{"order", order, params.N},
		{"feP0..feP3", rawLimbs(fe{feP0, feP1, feP2, feP3}), params.P},
		{"feOne", feOne.toBig(), big.NewInt(1)},
		{"feOne's limbs", rawLimbs(feOne), new(big.Int).Mod(r, params.P)},
		{"feR2's limbs", rawLimbs(feR2), new(big.Int).Mod(new(big.Int).Mul(r, r), params.P)},
		{"feR3's limbs", rawLimbs(feR3), new(big.Int).Exp(r, big.NewInt(3), params.P)},
		{"invP0..invP4", s62Big(s62{invP0, invP1, 0, invP3, invP4}), params.P},
		{"feB", feB.toBig(), params.B},
		{"genPoint.x", genPoint.bigX(), params.Gx},
		{"genPoint.y", genPoint.bigY(), params.Gy},
	} {
		if c.got.Cmp(c.want) != 0 {
			t.Errorf("%s = %x, crypto/elliptic has %x", c.name, c.got, c.want)
		}
	}
}

// s62Big is the integer x's signed 62-bit limbs spell.
func s62Big(x s62) *big.Int {
	v := new(big.Int)
	for i := 4; i >= 0; i-- {
		v.Lsh(v, 62).Add(v, big.NewInt(x[i]))
	}
	return v
}

// rawLimbs is the integer x's limbs spell, no domain conversion.
func rawLimbs(x fe) *big.Int {
	v := new(big.Int)
	for i := 3; i >= 0; i-- {
		v.Lsh(v, 64).Or(v, new(big.Int).SetUint64(x[i]))
	}
	return v
}
