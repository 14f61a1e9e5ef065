package mpi

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/sim"
)

// shardTrace is everything observable a rank records during the sharded
// workloads below. The parallel-mode determinism contract says every
// field must be byte-identical whatever the shard count or placement.
type shardTrace struct {
	Finish sim.Time
	Sum    int64
	Events []string
}

// shardWorkloadMain exercises the cross-shard seams: ring exchanges
// (send/recv interleaved with skewed compute), WaitAny over two
// neighbours, blocking and nonblocking collectives, and a closing
// barrier.
func shardWorkloadMain(traces []shardTrace) func(*Rank) {
	return func(r *Rank) {
		c := r.World()
		me, p := r.ID(), r.World().Size()
		tr := &traces[me]
		right, left := (me+1)%p, (me-1+p)%p
		for round := 0; round < 4; round++ {
			r.Compute(sim.Time((me*37+round*11)%97) * sim.Microsecond)
			sreq := c.Isend(r, right, 10+round, int64(64+me), fmt.Sprintf("r%d.%d", me, round))
			st := c.Recv(r, left, 10+round)
			c.Wait(r, sreq)
			tr.Events = append(tr.Events, fmt.Sprintf("ring%d %v %v", round, r.Now(), st.Data))
		}
		// Both neighbours race into a WaitAny; the winning order must not
		// depend on which shards host them.
		a := c.Irecv(r, left, 99)
		b := c.Irecv(r, right, 99)
		r.Compute(sim.Time(me%3) * sim.Microsecond)
		c.IsendAndFree(r, left, 99, 32+int64(me), nil)
		c.IsendAndFree(r, right, 99, 48+int64(me), nil)
		reqs := []*Request{a, b}
		for done := 0; done < 2; done++ {
			i, st := c.WaitAny(r, reqs)
			reqs[i] = nil
			tr.Events = append(tr.Events, fmt.Sprintf("any%d src%d %v", i, st.Source, r.Now()))
		}
		sum := c.Allreduce(r, Part{Bytes: 8, Data: int64(me)}, SumInt64, nil)
		tr.Sum = sum.Data.(int64)
		// Nonblocking collective: the helper process runs on the rank's own
		// shard, overlapping the compute below.
		cr := c.Iallgatherv(r, Part{Bytes: 16, Data: int64(me * me)})
		r.Compute(2 * sim.Microsecond)
		for _, pt := range c.WaitColl(r, cr).([]Part) {
			tr.Sum += pt.Data.(int64)
		}
		c.Barrier(r)
		tr.Finish = r.Now()
	}
}

func runShardWorkload(t *testing.T, shards int, place func(rank int) int) []shardTrace {
	t.Helper()
	const procs = 8
	traces := make([]shardTrace, procs)
	w := NewWorld(Config{Procs: procs, Seed: 7, Shards: shards, Place: place})
	if _, err := w.Run(shardWorkloadMain(traces)); err != nil {
		t.Fatalf("shards=%d: Run: %v", shards, err)
	}
	return traces
}

// TestShardedWorldDeterminism pins the tentpole contract at the mpi
// layer: the same workload over 1, 2 and 4 shards — blocked and strided
// placements — produces identical per-rank trajectories.
func TestShardedWorldDeterminism(t *testing.T) {

	ref := runShardWorkload(t, 1, nil)
	for _, tc := range []struct {
		name   string
		shards int
		place  func(rank int) int
	}{
		{"2-blocked", 2, nil},
		{"2-strided", 2, func(rank int) int { return rank % 2 }},
		{"4-blocked", 4, nil},
		{"4-strided", 4, func(rank int) int { return rank % 4 }},
	} {
		got := runShardWorkload(t, tc.shards, tc.place)
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("%s: trajectory diverged from 1-shard reference", tc.name)
			for i := range ref {
				if !reflect.DeepEqual(got[i], ref[i]) {
					t.Errorf("  rank %d:\n    ref %+v\n    got %+v", i, ref[i], got[i])
				}
			}
		}
	}
}

// shardSimpleEvents is the shared observable record of the simple
// workload run by both process representations.
func shardSimpleBody(tr *shardTrace, r *Rank, round int, st Status) {
	tr.Events = append(tr.Events, fmt.Sprintf("ring%d %v %v", round, r.Now(), st.Data))
}

func runShardWorkloadFibers(t *testing.T, shards int) []shardTrace {
	t.Helper()
	const procs = 8
	traces := make([]shardTrace, procs)
	w := NewWorld(Config{Procs: procs, Seed: 7, Shards: shards})
	_, err := w.RunFibers(func(r *Rank, f *sim.Fiber) sim.StepFunc {
		c := r.World()
		me, p := r.ID(), r.World().Size()
		tr := &traces[me]
		right, left := (me+1)%p, (me-1+p)%p
		round := 0
		var loop sim.StepFunc
		loop = func(_ *sim.Fiber) sim.StepFunc {
			if round >= 3 {
				return c.FAllreduce(r, Part{Bytes: 8, Data: int64(me)}, SumInt64, nil, func(sum Part) sim.StepFunc {
					tr.Sum = sum.Data.(int64)
					return c.FBarrier(r, func(_ *sim.Fiber) sim.StepFunc {
						tr.Finish = r.Now()
						return nil
					})
				})
			}
			rd := round
			round++
			return r.FCompute(sim.Time((me*37+rd*11)%97)*sim.Microsecond, func(_ *sim.Fiber) sim.StepFunc {
				return c.FSend(r, right, 10+rd, int64(64+me), fmt.Sprintf("r%d.%d", me, rd), func(_ *sim.Fiber) sim.StepFunc {
					return c.FRecv(r, left, 10+rd, func(st Status) sim.StepFunc {
						shardSimpleBody(tr, r, rd, st)
						return loop
					})
				})
			})
		}
		return loop
	})
	if err != nil {
		t.Fatalf("shards=%d: RunFibers: %v", shards, err)
	}
	return traces
}

func runShardWorkloadSimple(t *testing.T, shards int) []shardTrace {
	t.Helper()
	const procs = 8
	traces := make([]shardTrace, procs)
	w := NewWorld(Config{Procs: procs, Seed: 7, Shards: shards})
	if _, err := w.Run(func(r *Rank) {
		c := r.World()
		me, p := r.ID(), r.World().Size()
		tr := &traces[me]
		right, left := (me+1)%p, (me-1+p)%p
		for rd := 0; rd < 3; rd++ {
			r.Compute(sim.Time((me*37+rd*11)%97) * sim.Microsecond)
			c.Send(r, right, 10+rd, int64(64+me), fmt.Sprintf("r%d.%d", me, rd))
			st := c.Recv(r, left, 10+rd)
			shardSimpleBody(tr, r, rd, st)
		}
		sum := c.Allreduce(r, Part{Bytes: 8, Data: int64(me)}, SumInt64, nil)
		tr.Sum = sum.Data.(int64)
		c.Barrier(r)
		tr.Finish = r.Now()
	}); err != nil {
		t.Fatalf("shards=%d: Run: %v", shards, err)
	}
	return traces
}

// TestShardedWorldFiberEquivalence checks the representation half of the
// contract under sharding: fiber-backed ranks produce the same trajectory
// as goroutine-backed ranks at every shard count, and fiber trajectories
// agree across shard counts.
func TestShardedWorldFiberEquivalence(t *testing.T) {
	ref := runShardWorkloadSimple(t, 1)
	for _, shards := range []int{1, 2, 4} {
		if got := runShardWorkloadSimple(t, shards); !reflect.DeepEqual(got, ref) {
			t.Errorf("goroutine shards=%d diverged from shards=1: %+v vs %+v", shards, got, ref)
		}
		if got := runShardWorkloadFibers(t, shards); !reflect.DeepEqual(got, ref) {
			t.Errorf("fiber shards=%d diverged from goroutine reference: %+v vs %+v", shards, got, ref)
		}
	}
}
