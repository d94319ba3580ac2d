//lint:file-ignore SA1019 crypto/elliptic's deprecated methods are the reference these tests compare against

package group

import (
	"bytes"
	"crypto/elliptic"
	"errors"
	"math/big"
	"testing"
	"testing/quick"
)

func TestScalarRoundTrip(t *testing.T) {
	s := MustRandomScalar()
	b := s.Bytes()
	if len(b) != ScalarSize {
		t.Fatalf("scalar encoding length = %d, want %d", len(b), ScalarSize)
	}
	got, err := ParseScalar(b)
	if err != nil {
		t.Fatalf("ParseScalar: %v", err)
	}
	if !got.Equal(s) {
		t.Fatal("round-tripped scalar differs")
	}
}

func TestParseScalarRejectsNonCanonical(t *testing.T) {
	b := Order().Bytes() // exactly the order: not canonical
	if _, err := ParseScalar(b); err == nil {
		t.Fatal("ParseScalar accepted the group order")
	}
	if _, err := ParseScalar(make([]byte, ScalarSize-1)); err == nil {
		t.Fatal("ParseScalar accepted a short encoding")
	}
}

func TestScalarArithmetic(t *testing.T) {
	a, b := NewScalar(7), NewScalar(5)
	if got := a.Add(b); !got.Equal(NewScalar(12)) {
		t.Errorf("7+5 = %v", got)
	}
	if got := a.Sub(b); !got.Equal(NewScalar(2)) {
		t.Errorf("7-5 = %v", got)
	}
	if got := a.Mul(b); !got.Equal(NewScalar(35)) {
		t.Errorf("7*5 = %v", got)
	}
	if got := a.Add(a.Neg()); !got.IsZero() {
		t.Errorf("7+(-7) = %v", got)
	}
	if got := a.Mul(a.Inverse()); !got.Equal(NewScalar(1)) {
		t.Errorf("7*7^-1 = %v", got)
	}
}

func TestScalarInverseOfZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Inverse of zero did not panic")
		}
	}()
	NewScalar(0).Inverse()
}

func TestScalarModularReduction(t *testing.T) {
	big2 := new(big.Int).Add(Order(), big.NewInt(3))
	s := ScalarFromBig(big2)
	if !s.Equal(NewScalar(3)) {
		t.Fatalf("order+3 mod order = %v, want 3", s)
	}
	if got := NewScalar(-1); !got.Add(NewScalar(1)).IsZero() {
		t.Fatalf("-1 + 1 != 0: %v", got)
	}
}

func TestPointRoundTrip(t *testing.T) {
	p := Base(MustRandomScalar())
	b := p.Bytes()
	if len(b) != PointSize {
		t.Fatalf("point encoding length = %d, want %d", len(b), PointSize)
	}
	got, err := ParsePoint(b)
	if err != nil {
		t.Fatalf("ParsePoint: %v", err)
	}
	if !got.Equal(p) {
		t.Fatal("round-tripped point differs")
	}
}

// TestBytesMatchesMarshalCompressed pins Bytes, which writes the
// compressed encoding itself, to crypto/elliptic's: random points (both
// y parities, and x with leading zero bytes turn up among 512), the
// generator, a point that came in through ParsePoint, and results of
// this package's own arithmetic.
func TestBytesMatchesMarshalCompressed(t *testing.T) {
	check := func(name string, p Point) {
		t.Helper()
		if got, want := p.Bytes(), elliptic.MarshalCompressed(curve, p.bigX(), p.bigY()); !bytes.Equal(got, want) {
			t.Fatalf("%s: Bytes = %x, MarshalCompressed = %x", name, got, want)
		}
	}
	check("generator", Generator())
	parities := [2]bool{}
	for i := 0; i < 512; i++ {
		p := Base(MustRandomScalar())
		check("random", p)
		parities[p.bigY().Bit(0)] = true
	}
	if !parities[0] || !parities[1] {
		t.Fatal("512 random points did not cover both y parities")
	}
	// x = 5 is on the curve and encodes with 31 leading zero bytes.
	small, err := ParsePoint(append([]byte{2}, NewScalar(5).Bytes()...))
	if err != nil {
		t.Fatalf("x = 5 should decompress: %v", err)
	}
	check("small x", small)
	check("parsed", small.Neg())
	p := Base(MustRandomScalar())
	check("sum", p.Add(small))
	check("mul", small.Mul(MustRandomScalar()))
	check("tabled mul", p.Precomputed().Mul(MustRandomScalar()))
	check("batch", BatchBase([]Scalar{MustRandomScalar()})[0])
}

func TestIdentityRoundTrip(t *testing.T) {
	id := Identity()
	if !id.IsIdentity() {
		t.Fatal("Identity() is not the identity")
	}
	b := id.Bytes()
	if !bytes.Equal(b, make([]byte, PointSize)) {
		t.Fatalf("identity encoding = %x, want zeros", b)
	}
	got, err := ParsePoint(b)
	if err != nil || !got.IsIdentity() {
		t.Fatalf("ParsePoint(zeros) = %v, %v", got, err)
	}
}

func TestParsePointRejectsGarbage(t *testing.T) {
	bad := make([]byte, PointSize)
	bad[0] = 0x02
	for i := 1; i < PointSize; i++ {
		bad[i] = 0xFF
	}
	if _, err := ParsePoint(bad); err == nil {
		t.Fatal("ParsePoint accepted an off-curve encoding")
	}
	if _, err := ParsePoint(bad[:10]); err == nil {
		t.Fatal("ParsePoint accepted a short encoding")
	}
}

func TestGroupLaws(t *testing.T) {
	g := Generator()
	a, b := MustRandomScalar(), MustRandomScalar()
	A, B := Base(a), Base(b)

	// Commutativity of the group operation.
	if !A.Add(B).Equal(B.Add(A)) {
		t.Fatal("addition is not commutative")
	}
	// g^a * g^b == g^(a+b)
	if !A.Add(B).Equal(Base(a.Add(b))) {
		t.Fatal("g^a * g^b != g^(a+b)")
	}
	// (g^a)^b == (g^b)^a
	if !A.Mul(b).Equal(B.Mul(a)) {
		t.Fatal("DH does not commute")
	}
	// p + identity == p
	if !A.Add(Identity()).Equal(A) {
		t.Fatal("identity is not neutral")
	}
	// p + (-p) == identity
	if !A.Add(A.Neg()).IsIdentity() {
		t.Fatal("p + (-p) != identity")
	}
	// g^order == identity (scalar reduces to zero)
	if !g.Mul(ScalarFromBig(Order())).IsIdentity() {
		t.Fatal("g^order != identity")
	}
}

func TestDHSharedSecretAgreement(t *testing.T) {
	alice := GenerateBaseKeyPair()
	bob := GenerateBaseKeyPair()
	s1 := DH(bob.Public, alice.Private)
	s2 := DH(alice.Public, bob.Private)
	if s1 != s2 {
		t.Fatal("DH shared secrets disagree")
	}
	carol := GenerateBaseKeyPair()
	if s3 := DH(carol.Public, alice.Private); s3 == s1 {
		t.Fatal("unrelated DH produced the same secret")
	}
}

func TestProduct(t *testing.T) {
	var points []Point
	sum := NewScalar(0)
	for i := int64(1); i <= 5; i++ {
		s := NewScalar(i * 11)
		sum = sum.Add(s)
		points = append(points, Base(s))
	}
	if !Product(points).Equal(Base(sum)) {
		t.Fatal("product of g^si != g^(sum si)")
	}
	if !Product(nil).IsIdentity() {
		t.Fatal("empty product is not the identity")
	}
}

// TestBlindingHomomorphism checks the property AHS verification relies
// on (§6.3 step 3): blinding every key by bsk and taking the product
// equals raising the product of the originals to bsk.
func TestBlindingHomomorphism(t *testing.T) {
	bsk := MustRandomScalar()
	var keys, blinded []Point
	for i := 0; i < 8; i++ {
		p := Base(MustRandomScalar())
		keys = append(keys, p)
		blinded = append(blinded, p.Mul(bsk))
	}
	if !Product(keys).Mul(bsk).Equal(Product(blinded)) {
		t.Fatal("(∏X)^bsk != ∏(X^bsk)")
	}
}

func TestHashToScalarDomainSeparation(t *testing.T) {
	a := HashToScalar("domain-a", []byte("input"))
	b := HashToScalar("domain-b", []byte("input"))
	if a.Equal(b) {
		t.Fatal("different domains produced the same scalar")
	}
	c := HashToScalar("domain-a", []byte("input"))
	if !a.Equal(c) {
		t.Fatal("HashToScalar is not deterministic")
	}
	// Length-prefixing must prevent concatenation ambiguity.
	d := HashToScalar("domain-a", []byte("in"), []byte("put"))
	if a.Equal(d) {
		t.Fatal("input framing is ambiguous")
	}
}

func TestHashToScalarEmptyInputs(t *testing.T) {
	a := HashToScalar("d")
	b := HashToScalar("d", []byte{})
	if a.Equal(b) {
		t.Fatal("zero inputs and one empty input should hash differently")
	}
}

func TestKeyPairAgainstChainedBase(t *testing.T) {
	// AHS §6.1: server i's keys are relative to bpk_{i-1}.
	base := Base(MustRandomScalar())
	kp := GenerateKeyPair(base)
	if !kp.Public.Equal(base.Mul(kp.Private)) {
		t.Fatal("chained key pair mismatch")
	}
}

func TestQuickScalarAddAssociative(t *testing.T) {
	f := func(a, b, c int64) bool {
		x, y, z := NewScalar(a), NewScalar(b), NewScalar(c)
		return x.Add(y).Add(z).Equal(x.Add(y.Add(z)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickExponentDistributes(t *testing.T) {
	// (g^a)^(b+c) == (g^a)^b * (g^a)^c for random small exponents.
	f := func(a, b, c uint16) bool {
		p := Base(NewScalar(int64(a) + 1))
		sb, sc := NewScalar(int64(b)), NewScalar(int64(c))
		lhs := p.Mul(sb.Add(sc))
		rhs := p.Mul(sb).Add(p.Mul(sc))
		return lhs.Equal(rhs)
	}
	cfg := &quick.Config{MaxCount: 20}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkScalarBaseMult(b *testing.B) {
	s := MustRandomScalar()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Base(s)
	}
}

func BenchmarkPointMul(b *testing.B) {
	p := Base(MustRandomScalar())
	s := MustRandomScalar()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Mul(s)
	}
}

func BenchmarkDH(b *testing.B) {
	p := Base(MustRandomScalar())
	s := MustRandomScalar()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		DH(p, s)
	}
}

// TestUnmarshalBinary: Point and Scalar are their own wire format, so
// this is where "validated on arrival" is decided for every message
// that carries one.
func TestUnmarshalBinary(t *testing.T) {
	g := Generator().Bytes()
	// A small x is below the field prime, so the only way to reject it
	// is that x³−3x+b has no square root: a well-formed encoding of a
	// point that is not on the curve.
	offCurve := make([]byte, PointSize)
	offCurve[0] = 0x02
	for offCurve[PointSize-1] = 1; ; offCurve[PointSize-1]++ {
		if _, err := ParsePoint(offCurve); err != nil {
			break
		}
	}
	uncompressed := append([]byte{0x04}, g[1:]...)
	for _, tc := range []struct {
		name string
		in   []byte
		ok   bool
	}{
		{"generator", g, true},
		{"identity", make([]byte, PointSize), true},
		{"empty", nil, false},
		{"one byte short", g[:PointSize-1], false},
		{"one byte long", append(g[:PointSize:PointSize], 0), false},
		{"x not on the curve", offCurve, false},
		{"x above the field prime", append([]byte{0x02}, bytes.Repeat([]byte{0xFF}, PointSize-1)...), false},
		{"uncompressed-form prefix", uncompressed, false},
	} {
		p := Generator()
		err := p.UnmarshalBinary(tc.in)
		if !tc.ok {
			if !errors.Is(err, ErrInvalidPoint) || !p.IsIdentity() {
				t.Errorf("point, %s: err %v, left %v", tc.name, err, p)
			}
			continue
		}
		if out, _ := p.MarshalBinary(); err != nil || !bytes.Equal(out, tc.in) {
			t.Errorf("point, %s: err %v, re-marshalled %x", tc.name, err, out)
		}
	}

	top := ScalarFromBig(new(big.Int).Sub(Order(), big.NewInt(1))).Bytes()
	for _, tc := range []struct {
		name string
		in   []byte
		ok   bool
	}{
		{"zero", make([]byte, ScalarSize), true},
		{"order − 1", top, true},
		{"empty", nil, false},
		{"one byte short", top[:ScalarSize-1], false},
		{"one byte long", append(top[:ScalarSize:ScalarSize], 0), false},
		{"the order itself", Order().Bytes(), false},
		{"all ones", bytes.Repeat([]byte{0xFF}, ScalarSize), false},
	} {
		s := NewScalar(7)
		err := s.UnmarshalBinary(tc.in)
		if !tc.ok {
			if !errors.Is(err, ErrInvalidScalar) || !s.IsZero() {
				t.Errorf("scalar, %s: err %v, left %v", tc.name, err, s)
			}
			continue
		}
		if out, _ := s.MarshalBinary(); err != nil || !bytes.Equal(out, tc.in) {
			t.Errorf("scalar, %s: err %v, re-marshalled %x", tc.name, err, out)
		}
	}
}

// FuzzUnmarshal: whatever arrives, decoding never panics, and what it
// accepts is canonical — it re-marshals to the bytes that came in, so
// no two encodings name the same element.
func FuzzUnmarshal(f *testing.F) {
	f.Add(Generator().Bytes())
	f.Add(make([]byte, PointSize))
	f.Add(NewScalar(-1).Bytes())
	f.Add(Order().Bytes())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		var p Point
		if p.UnmarshalBinary(b) == nil {
			if out, _ := p.MarshalBinary(); !bytes.Equal(out, b) {
				t.Fatalf("point %x accepted, re-marshals as %x", b, out)
			}
		}
		var s Scalar
		if s.UnmarshalBinary(b) == nil {
			if out, _ := s.MarshalBinary(); !bytes.Equal(out, b) {
				t.Fatalf("scalar %x accepted, re-marshals as %x", b, out)
			}
		}
	})
}
