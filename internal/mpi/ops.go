package mpi

// Common ReduceOp implementations. All of them treat a nil payload as the
// identity, so cost-only simulations (nil Data) can reuse the same
// collectives as payload-carrying code.

// SumInt64 adds two int64 payloads.
func SumInt64(a, b interface{}) interface{} {
	av, _ := a.(int64)
	bv, _ := b.(int64)
	return av + bv
}

// SumFloat64 adds two scalar float64 payloads.
func SumFloat64(a, b interface{}) interface{} {
	av, _ := a.(float64)
	bv, _ := b.(float64)
	return av + bv
}
