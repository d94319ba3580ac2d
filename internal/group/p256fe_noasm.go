//go:build !amd64

package group

// Off amd64 the field multiply and square are the Go bodies, and
// BatchMul's kernel runs one lane at a time: feIFMA is false, so the
// eight-lane primitives below are never called.

func feMul(z, x, y *fe) { feMulGeneric(z, x, y) }

func feSqrN(z, x *fe, n int) { feSqrNGeneric(z, x, n) }

func feHasADX() bool { return false }

func feHasIFMA() bool { return false }

func fe8Mul(z, x, y *fe8) {}

func fe8MulConst(z, x *fe8, c *[5]uint64) {}

func fe8Sub(z, x, y *fe8) {}

func fe8Neg(z, x *fe8) {}
