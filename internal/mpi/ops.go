package mpi

// Common ReduceOp implementations. All of them treat a nil payload as the
// identity, so cost-only simulations (nil Data) can reuse the same
// collectives as payload-carrying code.

// sumFloat64s adds two []float64 payloads elementwise. Shorter inputs are
// treated as zero-padded.
func sumFloat64s(a, b interface{}) interface{} {
	av, _ := a.([]float64)
	bv, _ := b.([]float64)
	if av == nil {
		return bv
	}
	if bv == nil {
		return av
	}
	n := len(av)
	if len(bv) > n {
		n = len(bv)
	}
	out := make([]float64, n)
	copy(out, av)
	for i, v := range bv {
		out[i] += v
	}
	return out
}

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
