package mpi

import "fmt"

// Cart is a Cartesian process topology over a communicator, like
// MPI_Cart_create. Rank 0 owns coordinate (0,0,...,0); the last dimension
// varies fastest (row-major), matching MPI.
type Cart struct {
	Comm     *Comm
	Dims     []int
	Periodic bool

	// One-rank cache of unit shifts: Shift sits in halo-exchange inner
	// loops and is almost always asked about the caller's own rank with
	// displacement ±1. Layout: for each dim, [src(-1), dst(-1), src(+1),
	// dst(+1)].
	cachedRank int // -1 when empty
	unitShift  []int
}

// NewCart builds a Cartesian topology with the given dimensions over c.
// The product of dims must equal the communicator size.
func NewCart(c *Comm, dims []int, periodic bool) *Cart {
	prod := 1
	for _, d := range dims {
		if d <= 0 {
			panic(fmt.Sprintf("mpi: cart dimension %d", d))
		}
		prod *= d
	}
	if prod != c.Size() {
		panic(fmt.Sprintf("mpi: cart dims %v (=%d) do not cover comm size %d", dims, prod, c.Size()))
	}
	return &Cart{Comm: c, Dims: append([]int(nil), dims...), Periodic: periodic, cachedRank: -1}
}

// BalancedDims factors size into ndims factors as close to each other as
// possible (like MPI_Dims_create), largest first.
func BalancedDims(size, ndims int) []int {
	if size <= 0 || ndims <= 0 {
		panic("mpi: BalancedDims needs positive arguments")
	}
	dims := make([]int, ndims)
	for i := range dims {
		dims[i] = 1
	}
	// Prime-factorize size, then hand out factors largest-first to the
	// currently smallest dimension, which keeps dimensions near-equal.
	var factors []int
	remaining := size
	for f := 2; remaining > 1; {
		if remaining%f == 0 {
			factors = append(factors, f)
			remaining /= f
		} else {
			f++
			if f*f > remaining {
				f = remaining // remaining is prime
			}
		}
	}
	for i := len(factors) - 1; i >= 0; i-- {
		min := 0
		for j := 1; j < ndims; j++ {
			if dims[j] < dims[min] {
				min = j
			}
		}
		dims[min] *= factors[i]
	}
	// Largest first, for the conventional (DimX >= DimY >= DimZ) layout.
	for i := 0; i < ndims; i++ {
		for j := i + 1; j < ndims; j++ {
			if dims[j] > dims[i] {
				dims[i], dims[j] = dims[j], dims[i]
			}
		}
	}
	return dims
}

// Coords returns the Cartesian coordinates of a comm rank.
func (ct *Cart) Coords(rank int) []int {
	if rank < 0 || rank >= ct.Comm.Size() {
		panic(fmt.Sprintf("mpi: cart coords of rank %d", rank))
	}
	coords := make([]int, len(ct.Dims))
	for i := len(ct.Dims) - 1; i >= 0; i-- {
		coords[i] = rank % ct.Dims[i]
		rank /= ct.Dims[i]
	}
	return coords
}

// RankAt returns the comm rank at the given coordinates, applying periodic
// wraparound if the topology is periodic. For non-periodic topologies,
// out-of-range coordinates return -1 (no neighbour).
func (ct *Cart) RankAt(coords []int) int {
	if len(coords) != len(ct.Dims) {
		panic("mpi: cart coordinate arity mismatch")
	}
	rank := 0
	for i, c := range coords {
		d := ct.Dims[i]
		if c < 0 || c >= d {
			if !ct.Periodic {
				return -1
			}
			c = ((c % d) + d) % d
		}
		rank = rank*d + c
	}
	return rank
}

// Shift returns the (source, dest) comm ranks for a displacement along
// dim, like MPI_Cart_shift. Either may be -1 on non-periodic boundaries.
func (ct *Cart) Shift(rank, dim, disp int) (src, dst int) {
	if disp == 1 || disp == -1 {
		if rank != ct.cachedRank {
			ct.fillUnitShifts(rank)
		}
		base := dim * 4
		if disp == 1 {
			base += 2
		}
		return ct.unitShift[base], ct.unitShift[base+1]
	}
	return ct.shiftSlow(rank, dim, disp)
}

func (ct *Cart) shiftSlow(rank, dim, disp int) (src, dst int) {
	coords := ct.Coords(rank)
	up := append([]int(nil), coords...)
	up[dim] += disp
	down := append([]int(nil), coords...)
	down[dim] -= disp
	return ct.RankAt(down), ct.RankAt(up)
}

// fillUnitShifts computes every ±1 shift of rank into the one-rank cache.
func (ct *Cart) fillUnitShifts(rank int) {
	if ct.unitShift == nil {
		ct.unitShift = make([]int, 4*len(ct.Dims))
	}
	for dim := range ct.Dims {
		src, dst := ct.shiftSlow(rank, dim, -1)
		ct.unitShift[dim*4], ct.unitShift[dim*4+1] = src, dst
		src, dst = ct.shiftSlow(rank, dim, 1)
		ct.unitShift[dim*4+2], ct.unitShift[dim*4+3] = src, dst
	}
	ct.cachedRank = rank
}
