package mpi

import (
	"testing"
	"testing/quick"
)

func cartWorld(t *testing.T, p int) *Comm {
	t.Helper()
	return NewWorld(Config{Procs: p, Seed: 1}).world
}

func TestBalancedDims(t *testing.T) {
	cases := []struct {
		size, ndims int
		want        []int
	}{
		{8, 3, []int{2, 2, 2}},
		{64, 3, []int{4, 4, 4}},
		{32, 3, []int{4, 4, 2}},
		{8192, 3, []int{32, 16, 16}},
		{7, 3, []int{7, 1, 1}},
		{12, 2, []int{4, 3}},
		{1, 3, []int{1, 1, 1}},
	}
	for _, c := range cases {
		got := BalancedDims(c.size, c.ndims)
		prod := 1
		for _, d := range got {
			prod *= d
		}
		if prod != c.size {
			t.Fatalf("BalancedDims(%d,%d) = %v does not multiply to size", c.size, c.ndims, got)
		}
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Errorf("BalancedDims(%d,%d) = %v, want %v", c.size, c.ndims, got, c.want)
				break
			}
		}
	}
}

// Property: BalancedDims always covers the size exactly and is sorted
// descending.
func TestBalancedDimsProperty(t *testing.T) {
	f := func(sz uint16, nd uint8) bool {
		size := int(sz)%4096 + 1
		ndims := int(nd)%4 + 1
		dims := BalancedDims(size, ndims)
		prod := 1
		for i, d := range dims {
			if d <= 0 {
				return false
			}
			if i > 0 && dims[i] > dims[i-1] {
				return false
			}
			prod *= d
		}
		return prod == size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCartCoordsRoundTrip(t *testing.T) {
	c := cartWorld(t, 24)
	ct := NewCart(c, []int{4, 3, 2})
	for rank := 0; rank < 24; rank++ {
		coords := ct.Coords(rank)
		if got := ct.RankAt(coords); got != rank {
			t.Fatalf("rank %d -> %v -> %d", rank, coords, got)
		}
	}
}

func TestCartRowMajorLayout(t *testing.T) {
	c := cartWorld(t, 12)
	ct := NewCart(c, []int{2, 3, 2})
	// Last dimension varies fastest: rank 1 should be (0,0,1).
	coords := ct.Coords(1)
	if coords[0] != 0 || coords[1] != 0 || coords[2] != 1 {
		t.Fatalf("coords(1) = %v, want [0 0 1]", coords)
	}
	coords = ct.Coords(2)
	if coords[0] != 0 || coords[1] != 1 || coords[2] != 0 {
		t.Fatalf("coords(2) = %v, want [0 1 0]", coords)
	}
}

func TestCartShiftPeriodic(t *testing.T) {
	c := cartWorld(t, 8)
	ct := NewCart(c, []int{2, 2, 2})
	src, dst := ct.Shift(0, 0, 1)
	if src != 4 || dst != 4 {
		t.Errorf("periodic shift of rank 0 = (%d,%d), want (4,4)", src, dst)
	}
}

func TestCartSizeMismatchPanics(t *testing.T) {
	c := cartWorld(t, 8)
	defer func() {
		if recover() == nil {
			t.Error("dims mismatch did not panic")
		}
	}()
	NewCart(c, []int{3, 3})
}

// TestCartHaloExchangeCarriesPayloads runs the apps' neighbour exchange on
// a periodic Cart: each rank sends its id both ways along every dimension
// and must receive, in payload, the id of the rank one step back (wrapped
// round the edge).
func TestCartHaloExchangeCarriesPayloads(t *testing.T) {
	dims := []int{3, 2, 2}
	w := testWorld(t, 12)
	mustRun(t, w, func(r *Rank) {
		c := r.World()
		ct := NewCart(c, dims)
		me := c.RankOf(r)
		var reqs []*Request
		var want []int
		for d := range dims {
			for k, disp := range []int{1, -1} {
				src, dst := ct.Shift(me, d, disp)
				reqs = append(reqs, c.Irecv(r, src, 2*d+k), c.Isend(r, dst, 2*d+k, 8, me))
				coords := ct.Coords(me)
				coords[d] = (coords[d] - disp + dims[d]) % dims[d]
				want = append(want, ct.RankAt(coords), -1)
			}
		}
		for i, st := range c.WaitAll(r, reqs...) {
			if want[i] >= 0 && st.Data.(int) != want[i] {
				t.Errorf("rank %d request %d got %v, want %d", me, i, st.Data, want[i])
			}
		}
	})
}
