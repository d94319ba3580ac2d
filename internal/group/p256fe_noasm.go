//go:build !amd64

package group

// Off amd64 the field multiply and square are the Go bodies.

func feMul(z, x, y *fe) { feMulGeneric(z, x, y) }

func feSqrN(z, x *fe, n int) { feSqrNGeneric(z, x, n) }

func feHasADX() bool { return false }
