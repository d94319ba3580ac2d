// Package group provides the prime-order group used by all of XRD's
// cryptography: Diffie-Hellman key exchange (§3.1), aggregate hybrid
// shuffle blinding (§6), and the discrete-log NIZKs.
//
// The paper assumes "a group of prime order p with a generator g in
// which discrete log is hard and the decisional Diffie-Hellman
// assumption holds". We instantiate it with NIST P-256, on this
// package's own field and curve arithmetic (p256fe.go, jacobian.go;
// crypto/elliptic is the reference the tests hold it against). Scalars
// are integers modulo the group order; points are curve points with the
// point at infinity as the identity.
//
// All types are immutable: operations return new values and never
// modify their receivers, so values can be shared freely across the
// many goroutines that make up a mix chain.
package group

import (
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/big"
)

const (
	// ScalarSize is the byte length of an encoded scalar.
	ScalarSize = 32
	// PointSize is the byte length of a compressed encoded point.
	PointSize = 33
	// UncompressedSize is the byte length of a point encoded as x‖y.
	UncompressedSize = 64
)

var (
	// order is the prime order of the P-256 base-point group.
	order, _ = new(big.Int).SetString("ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551", 16)

	// ErrInvalidPoint is returned when decoding bytes that are not a
	// valid compressed group element.
	ErrInvalidPoint = errors.New("group: invalid point encoding")
	// ErrInvalidScalar is returned when decoding bytes that are not a
	// canonical scalar (>= group order).
	ErrInvalidScalar = errors.New("group: invalid scalar encoding")
)

// Order returns a copy of the prime order of the group.
func Order() *big.Int { return new(big.Int).Set(order) }

// Scalar is an integer modulo the group order. The zero value is the
// scalar 0.
type Scalar struct {
	v *big.Int // nil means 0
}

// Point is an element of the group: its affine coordinates in the
// Montgomery domain, in place — 72 bytes, a value with nothing behind
// it but a Precomputed point's shared table. The zero value is the
// identity (point at infinity): (0, 0) is not on the curve, and since
// the group has no element of order two no point has y = 0, so y alone
// tells. DESIGN.md, "A point is a value".
type Point struct {
	affinePoint
	// tab is set on Precomputed points only: the fixed-key table every
	// copy of the point shares (fixedbase.go). It is not part of the
	// element — Equal, Bytes and the binary encoding ignore it.
	tab *fixedTable
}

// affine is the bare Point at (x, y), which the caller knows to be on
// the curve.
func affine(x, y fe) Point { return Point{affinePoint: affinePoint{x: x, y: y}} }

// NewScalar returns the scalar v mod the group order.
func NewScalar(v int64) Scalar {
	n := big.NewInt(v)
	n.Mod(n, order)
	return Scalar{n}
}

// ScalarFromBig reduces v modulo the group order.
func ScalarFromBig(v *big.Int) Scalar {
	n := new(big.Int).Mod(v, order)
	return Scalar{n}
}

// RandomScalar returns a uniformly random non-zero scalar read from r.
// It fails only if r fails.
func RandomScalar(r io.Reader) (Scalar, error) {
	for {
		n, err := rand.Int(r, order)
		if err != nil {
			return Scalar{}, fmt.Errorf("group: sampling scalar: %w", err)
		}
		if n.Sign() != 0 {
			return Scalar{n}, nil
		}
	}
}

// MustRandomScalar returns a uniformly random non-zero scalar from
// crypto/rand, panicking if the system randomness source fails. It is
// intended for key generation where such a failure is unrecoverable.
func MustRandomScalar() Scalar {
	s, err := RandomScalar(rand.Reader)
	if err != nil {
		panic(err)
	}
	return s
}

// ParseScalar decodes a 32-byte big-endian scalar. It rejects
// non-canonical encodings (values >= the group order).
func ParseScalar(b []byte) (Scalar, error) {
	if len(b) != ScalarSize {
		return Scalar{}, fmt.Errorf("%w: length %d", ErrInvalidScalar, len(b))
	}
	n := new(big.Int).SetBytes(b)
	if n.Cmp(order) >= 0 {
		return Scalar{}, ErrInvalidScalar
	}
	return Scalar{n}, nil
}

// HashToScalar maps arbitrary input domains to a scalar, used for
// Fiat-Shamir challenges and for deterministic group assignment
// (§5.3.1). The domain string separates unrelated uses.
func HashToScalar(domain string, inputs ...[]byte) Scalar {
	h := sha256.New()
	h.Write([]byte(domain))
	for _, in := range inputs {
		var l [8]byte
		putUint64(l[:], uint64(len(in)))
		h.Write(l[:])
		h.Write(in)
	}
	// A single SHA-256 output is 2^-128-close to uniform mod the
	// 256-bit order; that bias is acceptable for challenges. For a
	// cleaner distribution we fold two hashes into a 512-bit value.
	d1 := h.Sum(nil)
	h.Write([]byte("fold"))
	d2 := h.Sum(nil)
	n := new(big.Int).SetBytes(append(d1, d2...))
	n.Mod(n, order)
	return Scalar{n}
}

func putUint64(b []byte, v uint64) {
	for i := 7; i >= 0; i-- {
		b[i] = byte(v)
		v >>= 8
	}
}

func (s Scalar) big() *big.Int {
	if s.v == nil {
		return new(big.Int)
	}
	return s.v
}

// Bytes returns the canonical 32-byte big-endian encoding of s.
func (s Scalar) Bytes() []byte {
	b := make([]byte, ScalarSize)
	s.big().FillBytes(b)
	return b
}

// MarshalBinary and UnmarshalBinary make a Scalar its own wire format
// (encoding/gob and friends call them): the canonical encoding out,
// and on the way in ParseScalar's validation, so a non-canonical
// scalar is a decode error before any code sees the value.
func (s Scalar) MarshalBinary() ([]byte, error) { return s.Bytes(), nil }

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (s *Scalar) UnmarshalBinary(b []byte) (err error) {
	*s, err = ParseScalar(b)
	return err
}

// IsZero reports whether s is the zero scalar.
func (s Scalar) IsZero() bool { return s.v == nil || s.v.Sign() == 0 }

// Equal reports whether s and t represent the same scalar.
func (s Scalar) Equal(t Scalar) bool { return s.big().Cmp(t.big()) == 0 }

// Add returns s + t mod the group order.
func (s Scalar) Add(t Scalar) Scalar {
	n := new(big.Int).Add(s.big(), t.big())
	n.Mod(n, order)
	return Scalar{n}
}

// Sub returns s - t mod the group order.
func (s Scalar) Sub(t Scalar) Scalar {
	n := new(big.Int).Sub(s.big(), t.big())
	n.Mod(n, order)
	return Scalar{n}
}

// Mul returns s * t mod the group order.
func (s Scalar) Mul(t Scalar) Scalar {
	n := new(big.Int).Mul(s.big(), t.big())
	n.Mod(n, order)
	return Scalar{n}
}

// Neg returns -s mod the group order.
func (s Scalar) Neg() Scalar {
	n := new(big.Int).Neg(s.big())
	n.Mod(n, order)
	return Scalar{n}
}

// String implements fmt.Stringer with a short hex prefix for logging.
func (s Scalar) String() string { return fmt.Sprintf("scalar(%x…)", s.Bytes()[:4]) }

// Generator returns the group generator g.
func Generator() Point { return genPoint }

// Identity returns the identity element (point at infinity).
func Identity() Point { return Point{} }

// Base returns g^s, the generator raised to scalar s. It runs on the
// generator's table of fixedbase.go (one mixed addition per non-zero
// 11-bit digit, no doublings), which is several times faster than
// crypto/elliptic's ScalarBaseMult; callers producing many points at
// once should prefer BatchBase, which sums them as one tree under
// shared inversions. See fixedbase.go for the variable-time trade-off
// discussion.
func Base(s Scalar) Point {
	if s.IsZero() {
		return Point{}
	}
	return genTable.mul(genPoint, s)
}

// ParsePoint decodes a compressed 33-byte point encoding as produced
// by Bytes. The all-zero encoding decodes to the identity. It accepts
// exactly what elliptic.UnmarshalCompressed accepts: y is recovered by
// one exponentiation by (p+1)/4, and a squaring rejects an x with no
// point over it.
func ParsePoint(b []byte) (Point, error) {
	if len(b) != PointSize {
		return Point{}, fmt.Errorf("%w: length %d", ErrInvalidPoint, len(b))
	}
	if isAllZero(b) {
		return Point{}, nil
	}
	if b[0] != 2 && b[0] != 3 {
		return Point{}, ErrInvalidPoint
	}
	x, ok := feFromBytes(b[1:])
	if !ok {
		return Point{}, ErrInvalidPoint
	}
	var rhs, y, y2 fe
	feCurveRHS(&rhs, &x)
	feSqrt(&y, &rhs)
	feSqr(&y2, &y)
	if y2 != rhs {
		return Point{}, ErrInvalidPoint
	}
	if y.isOdd() != (b[0] == 3) {
		feNeg(&y, &y)
	}
	return affine(x, y), nil
}

// ParseUncompressed decodes the 64-byte x‖y encoding AppendUncompressed
// writes: both coordinates below p and satisfying the curve equation,
// or all zeros for the identity. Checking a point costs three field
// multiplications where recovering y from its sign costs ≈ 260, which
// is why server↔server batches (onion.Batch) carry y; everything a user
// sends or stores, and everything hashed, stays compressed.
func ParseUncompressed(b []byte) (Point, error) {
	if len(b) != UncompressedSize {
		return Point{}, fmt.Errorf("%w: length %d", ErrInvalidPoint, len(b))
	}
	if isAllZero(b) {
		return Point{}, nil
	}
	x, okx := feFromBytes(b[:32])
	y, oky := feFromBytes(b[32:])
	if !okx || !oky {
		return Point{}, ErrInvalidPoint
	}
	var rhs, y2 fe
	feCurveRHS(&rhs, &x)
	feSqr(&y2, &y)
	if y2 != rhs {
		return Point{}, ErrInvalidPoint
	}
	return affine(x, y), nil
}

func isAllZero(b []byte) bool {
	var acc byte
	for _, c := range b {
		acc |= c
	}
	return acc == 0
}

// IsIdentity reports whether p is the identity element.
func (p Point) IsIdentity() bool { return p.y.isZero() }

// Bytes returns the 33-byte compressed encoding of p (SEC 1: 0x02 or
// 0x03 for y's parity, then x). The identity encodes as 33 zero bytes.
// A Point's coordinates are on the curve by construction (a parser
// validated them, or this package's arithmetic produced them), so there
// is nothing to check on the way out.
func (p Point) Bytes() []byte {
	out := make([]byte, PointSize)
	if !p.IsIdentity() {
		out[0] = 2
		if p.y.isOdd() {
			out[0] = 3
		}
		p.x.putBytes(out[1:])
	}
	return out
}

// AppendUncompressed appends the 64-byte x‖y encoding of p to dst, the
// identity as 64 zero bytes.
func (p Point) AppendUncompressed(dst []byte) []byte {
	var b [UncompressedSize]byte
	if !p.IsIdentity() {
		p.x.putBytes(b[:32])
		p.y.putBytes(b[32:])
	}
	return append(dst, b[:]...)
}

// MarshalBinary and UnmarshalBinary make a Point its own wire format
// (encoding/gob and friends call them): the compressed encoding out,
// and on the way in ParsePoint's validation, so an off-curve point is
// a decode error before any code sees the value.
func (p Point) MarshalBinary() ([]byte, error) { return p.Bytes(), nil }

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (p *Point) UnmarshalBinary(b []byte) (err error) {
	*p, err = ParsePoint(b)
	return err
}

// Equal reports whether p and q are the same group element: reduced
// Montgomery limbs are canonical, and the identity is all zeros.
func (p Point) Equal(q Point) bool { return p.affinePoint == q.affinePoint }

// Add returns p + q (group operation): one affine chord or tangent, its
// division the call's only cost beyond a dozen field operations.
func (p Point) Add(q Point) Point {
	if p.IsIdentity() {
		return q
	}
	if q.IsIdentity() {
		return p
	}
	var lam, den fe
	switch {
	case p.x != q.x:
		feSub(&lam, &q.y, &p.y)
		feSub(&den, &q.x, &p.x)
	case p.y != q.y: // p + (−p)
		return Point{}
	default:
		feTangentNum(&lam, &p.x)
		feDouble(&den, &p.y)
	}
	feInv(&den, &den)
	feMul(&lam, &lam, &den)
	var sum Point
	feChord(&sum.x, &sum.y, &lam, &p.x, &p.y, &q.x)
	return sum
}

// Neg returns the inverse element -p.
func (p Point) Neg() Point {
	var ny fe
	feNeg(&ny, &p.y)
	return affine(p.x, ny)
}

// Mul returns p^s in multiplicative notation (scalar multiplication
// [s]p). Mul implements the paper's DH(p, s) = p^s. The generator
// (NIZK provers and verifiers pass it as an explicit base) and
// Precomputed points run on their tables; every other point takes the
// fixed-window ladder of batchmul.go.
func (p Point) Mul(s Scalar) Point {
	if p.IsIdentity() || s.IsZero() {
		return Point{}
	}
	if t := p.table(); t != nil {
		return t.mul(p, s)
	}
	return p.ladder(s)
}

// DH performs a Diffie-Hellman key exchange and returns the 32-byte
// shared secret derived by hashing the compressed shared point. It
// implements the paper's DH(g^a, b) = g^ab, mapped to a symmetric key.
func DH(pub Point, priv Scalar) [32]byte {
	return SharedSecret(pub.Mul(priv))
}

// SharedSecret maps an already-exchanged Diffie-Hellman point to the
// symmetric secret, exactly as DH does internally. The blame protocol
// uses it on keys revealed by other servers (§6.4 step 2).
func SharedSecret(p Point) [32]byte {
	return sha256.Sum256(p.Bytes())
}

// Product returns the product of all points (the sum in additive
// notation). AHS verification works with products of users' DH keys
// (∏ X_j, §6.3 step 3); an empty product is the identity. The points
// are accumulated in Jacobian coordinates, so the whole product pays
// one field inversion instead of Add's one per addition.
func Product(points []Point) Point {
	var acc jacPoint
	for i := range points {
		if !points[i].IsIdentity() {
			acc.addAffine(&points[i].affinePoint, false)
		}
	}
	return acc.toPoint()
}

// String implements fmt.Stringer with a short hex prefix for logging.
func (p Point) String() string {
	if p.IsIdentity() {
		return "point(identity)"
	}
	return fmt.Sprintf("point(%x…)", p.Bytes()[:5])
}

// KeyPair is a private scalar together with its public point. Which
// base the public point is relative to depends on context: user and
// inner keys use the generator g, while AHS blinding and mixing keys
// chain off the previous server's blinding key (§6.1).
type KeyPair struct {
	Private Scalar
	Public  Point
}

// GenerateBaseKeyPair returns a fresh key pair against the generator g.
func GenerateBaseKeyPair() KeyPair {
	priv := MustRandomScalar()
	return KeyPair{Private: priv, Public: Base(priv)}
}
