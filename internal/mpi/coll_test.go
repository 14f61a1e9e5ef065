package mpi

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

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

// commSizes exercises power-of-two (recursive doubling) and non-power-of-
// two (fallback) code paths.
var commSizes = []int{1, 2, 3, 4, 5, 7, 8, 16}

func TestBarrierSynchronizes(t *testing.T) {
	for _, p := range commSizes {
		p := p
		t.Run(fmt.Sprintf("p%d", p), func(t *testing.T) {
			w := testWorld(t, p)
			exitTimes := make([]sim.Time, p)
			var latestEntry sim.Time
			mustRun(t, w, func(r *Rank) {
				// Stagger the entries.
				r.Idle(sim.Time(r.ID()) * sim.Millisecond)
				if e := r.Now(); e > latestEntry {
					latestEntry = e
				}
				r.World().Barrier(r)
				exitTimes[r.ID()] = r.Now()
			})
			for i, e := range exitTimes {
				if e < latestEntry {
					t.Fatalf("rank %d left barrier at %v before last entry %v", i, e, latestEntry)
				}
			}
		})
	}
}

func TestBcastDeliversRootValue(t *testing.T) {
	for _, p := range commSizes {
		for root := 0; root < p; root += 3 {
			w := testWorld(t, p)
			got := make([]interface{}, p)
			rootVal := fmt.Sprintf("payload-from-%d", root)
			root := root
			mustRun(t, w, func(r *Rank) {
				part := Part{}
				if r.ID() == root {
					part = Part{Bytes: 64, Data: rootVal}
				}
				res := r.World().Bcast(r, root, part)
				got[r.ID()] = res.Data
			})
			for i, g := range got {
				if g != rootVal {
					t.Fatalf("p=%d root=%d rank %d got %v", p, root, i, g)
				}
			}
		}
	}
}

func TestReduceSumsAtRoot(t *testing.T) {
	for _, p := range commSizes {
		w := testWorld(t, p)
		var rootSum int64
		mustRun(t, w, func(r *Rank) {
			part := Part{Bytes: 8, Data: int64(r.ID() + 1)}
			res, isRoot := r.World().Reduce(r, 0, part, SumInt64, nil)
			if isRoot {
				rootSum = res.Data.(int64)
			}
		})
		want := int64(p * (p + 1) / 2)
		if rootSum != want {
			t.Fatalf("p=%d reduce sum = %d, want %d", p, rootSum, want)
		}
	}
}

func TestReduceNonZeroRoot(t *testing.T) {
	w := testWorld(t, 6)
	var rootSum int64
	var rootRank int
	mustRun(t, w, func(r *Rank) {
		res, isRoot := r.World().Reduce(r, 4, Part{Bytes: 8, Data: int64(1)}, SumInt64, nil)
		if isRoot {
			rootSum = res.Data.(int64)
			rootRank = r.ID()
		}
	})
	if rootSum != 6 || rootRank != 4 {
		t.Fatalf("sum=%d at rank %d, want 6 at 4", rootSum, rootRank)
	}
}

func TestAllreduceAllRanksAgree(t *testing.T) {
	for _, p := range commSizes {
		w := testWorld(t, p)
		got := make([]int64, p)
		mustRun(t, w, func(r *Rank) {
			res := r.World().Allreduce(r, Part{Bytes: 8, Data: int64(r.ID() + 1)}, SumInt64, nil)
			got[r.ID()] = res.Data.(int64)
		})
		want := int64(p * (p + 1) / 2)
		for i, g := range got {
			if g != want {
				t.Fatalf("p=%d rank %d allreduce = %d, want %d", p, i, g, want)
			}
		}
	}
}

func TestAllreduceVector(t *testing.T) {
	w := testWorld(t, 8)
	got := make([][]float64, 8)
	mustRun(t, w, func(r *Rank) {
		vec := []float64{float64(r.ID()), 1}
		res := r.World().Allreduce(r, Part{Bytes: 16, Data: vec}, sumFloat64s, nil)
		got[r.ID()] = res.Data.([]float64)
	})
	for i, g := range got {
		if math.Abs(g[0]-28) > 1e-9 || math.Abs(g[1]-8) > 1e-9 {
			t.Fatalf("rank %d vector allreduce = %v", i, g)
		}
	}
}

func TestGathervCollectsInOrder(t *testing.T) {
	for _, p := range commSizes {
		w := testWorld(t, p)
		var rootParts []Part
		mustRun(t, w, func(r *Rank) {
			part := Part{Bytes: int64(r.ID() + 1), Data: r.ID() * 10}
			res := r.World().Gatherv(r, 0, part)
			if r.ID() == 0 {
				rootParts = res
			} else if res != nil {
				t.Errorf("non-root rank %d got non-nil gather result", r.ID())
			}
		})
		if len(rootParts) != p {
			t.Fatalf("p=%d gathered %d parts", p, len(rootParts))
		}
		for i, part := range rootParts {
			if part.Data.(int) != i*10 || part.Bytes != int64(i+1) {
				t.Fatalf("p=%d slot %d = %+v", p, i, part)
			}
		}
	}
}

func TestAllgathervAllRanksSeeAll(t *testing.T) {
	for _, p := range commSizes {
		w := testWorld(t, p)
		results := make([][]Part, p)
		mustRun(t, w, func(r *Rank) {
			part := Part{Bytes: 8, Data: fmt.Sprintf("v%d", r.ID())}
			results[r.ID()] = r.World().Allgatherv(r, part)
		})
		for rank, parts := range results {
			if len(parts) != p {
				t.Fatalf("p=%d rank %d has %d parts", p, rank, len(parts))
			}
			for i, part := range parts {
				if part.Data != fmt.Sprintf("v%d", i) {
					t.Fatalf("p=%d rank %d slot %d = %v", p, rank, i, part.Data)
				}
			}
		}
	}
}

func TestReduceCostChargesTime(t *testing.T) {
	run := func(cost CostFn) sim.Time {
		w := testWorld(t, 8)
		var end sim.Time
		mustRun(t, w, func(r *Rank) {
			r.World().Reduce(r, 0, Part{Bytes: 1 << 20, Data: nil}, SumInt64, cost)
			if r.ID() == 0 {
				end = r.Now()
			}
		})
		return end
	}
	free := run(nil)
	costed := run(LinearCost(sim.Nanosecond)) // 1 ns per combined byte
	if costed <= free {
		t.Fatalf("combine cost had no effect: free=%v costed=%v", free, costed)
	}
}

func TestCollectiveCostGrowsWithP(t *testing.T) {
	// A reduce on more ranks must take longer (the complexity-vs-P story
	// the decoupling strategy exploits).
	run := func(p int) sim.Time {
		w := testWorld(t, p)
		var end sim.Time
		mustRun(t, w, func(r *Rank) {
			r.World().Reduce(r, 0, Part{Bytes: 1 << 16}, SumInt64, nil)
			if r.ID() == 0 {
				end = r.Now()
			}
		})
		return end
	}
	if t64, t4 := run(64), run(4); t64 <= t4 {
		t.Fatalf("reduce on 64 ranks (%v) not slower than on 4 (%v)", t64, t4)
	}
}

func TestNonblockingCollectivesOverlapCompute(t *testing.T) {
	// Iallgatherv while computing: total time should be close to
	// max(compute, collective), not their sum.
	const compute = 50 * sim.Millisecond
	blocking := func() sim.Time {
		w := testWorld(t, 8)
		var end sim.Time
		mustRun(t, w, func(r *Rank) {
			r.World().Allgatherv(r, Part{Bytes: 50_000_000}) // ~5ms serialization each
			r.Compute(compute)
			if r.Now() > end {
				end = r.Now()
			}
		})
		return end
	}
	overlapped := func() sim.Time {
		w := testWorld(t, 8)
		var end sim.Time
		mustRun(t, w, func(r *Rank) {
			cr := r.World().Iallgatherv(r, Part{Bytes: 50_000_000})
			r.Compute(compute)
			r.World().WaitColl(r, cr)
			if r.Now() > end {
				end = r.Now()
			}
		})
		return end
	}
	tb, to := blocking(), overlapped()
	if to >= tb {
		t.Fatalf("nonblocking (%v) not faster than blocking (%v)", to, tb)
	}
}

func TestIreduceResultAtRoot(t *testing.T) {
	w := testWorld(t, 8)
	var got int64
	mustRun(t, w, func(r *Rank) {
		cr := r.World().Ireduce(r, 0, Part{Bytes: 8, Data: int64(2)}, SumInt64, nil)
		r.Compute(sim.Millisecond)
		res := r.World().WaitColl(r, cr).(Part)
		if r.ID() == 0 {
			got = res.Data.(int64)
		}
	})
	if got != 16 {
		t.Fatalf("ireduce sum = %d, want 16", got)
	}
}

func TestIbarrierCompletes(t *testing.T) {
	w := testWorld(t, 6)
	mustRun(t, w, func(r *Rank) {
		cr := r.World().Ibarrier(r)
		r.Compute(sim.Millisecond)
		r.World().WaitColl(r, cr)
	})
}

func TestBackToBackCollectivesDoNotCrossTalk(t *testing.T) {
	// Two reduces in a row with different values must not mix messages.
	w := testWorld(t, 8)
	var first, second int64
	mustRun(t, w, func(r *Rank) {
		c := r.World()
		a, isRoot := c.Reduce(r, 0, Part{Bytes: 8, Data: int64(1)}, SumInt64, nil)
		b, _ := c.Reduce(r, 0, Part{Bytes: 8, Data: int64(100)}, SumInt64, nil)
		if isRoot {
			first = a.Data.(int64)
			second = b.Data.(int64)
		}
	})
	if first != 8 || second != 800 {
		t.Fatalf("first=%d second=%d, want 8 and 800", first, second)
	}
}

// Property: allreduce of random int64 vectors equals the serial fold, for
// random communicator sizes.
func TestAllreduceMatchesSerialFoldProperty(t *testing.T) {
	f := func(vals []int16, psel uint8) bool {
		p := int(psel)%9 + 1
		if len(vals) < p {
			return true // not enough values to distribute
		}
		var want int64
		for i := 0; i < p; i++ {
			want += int64(vals[i])
		}
		w := NewWorld(Config{Procs: p, Seed: 3})
		ok := true
		_, err := w.Run(func(r *Rank) {
			res := r.World().Allreduce(r, Part{Bytes: 8, Data: int64(vals[r.ID()])}, SumInt64, nil)
			if res.Data.(int64) != want {
				ok = false
			}
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
