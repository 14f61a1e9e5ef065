package mpi

import (
	"reflect"
	"testing"

	"repro/internal/sim"
)

// Correctness of the allgatherv result shared through World.gathers
// (coll.go): across a crash and rebuild, across shards, and across reuse
// of a pooled world.

// gatherMark is the payload the tests below gather: who contributed it
// and in which revocation epoch.
type gatherMark struct {
	rank, epoch int
}

// gatherRecObs is what the crash/rebuild bodies record, per rank: when the
// epoch-0 allgatherv finished, the result it returned with a copy taken at
// that instant, and the epoch-1 (post-rebuild) result.
type gatherRecObs struct {
	finish0 []sim.Time
	kept    [][]Part
	snap    [][]Part
	fresh   [][]Part
}

func newGatherRecObs(procs int) *gatherRecObs {
	return &gatherRecObs{
		finish0: make([]sim.Time, procs),
		kept:    make([][]Part, procs),
		snap:    make([][]Part, procs),
		fresh:   make([][]Part, procs),
	}
}

func (o *gatherRecObs) note(r *Rank, parts []Part) {
	me := r.ID()
	if r.w.epoch > 0 {
		o.fresh[me] = parts
		return
	}
	o.finish0[me] = r.Now()
	o.kept[me] = parts
	o.snap[me] = append([]Part(nil), parts...)
}

// gatherRecPart is rank me's contribution: rank 3's is large, so the ranks
// finish the collective at visibly different instants and a crash can land
// between the first and the last of them.
func gatherRecPart(r *Rank) Part {
	bytes := int64(64)
	if r.ID() == 3 {
		bytes = 1 << 20
	}
	return Part{Bytes: bytes, Data: gatherMark{r.ID(), int(r.w.epoch)}}
}

func gatherRecProcBody(o *gatherRecObs) func(*Rank) {
	return func(r *Rank) {
		c := r.World()
		if r.Incarnation() > 0 {
			r.Rebuild()
		}
		for {
			err := r.Protect(func() {
				r.Compute(sim.Time(1+r.ID()) * 10 * sim.Microsecond)
				o.note(r, c.Allgatherv(r, gatherRecPart(r)))
				c.Barrier(r)
				r.CheckFailed()
			})
			if err == nil {
				return
			}
			r.Rebuild()
		}
	}
}

// TestAllgathervAfterRebuildReturnsFreshParts kills a rank while an
// allgatherv is half finished — some members already hold its result,
// others are still inside — and rebuilds. Collective tags restart at zero,
// so the first post-rebuild allgatherv has the interrupted one's registry
// key: it must return only post-rebuild parts, in a result of its own (the
// pre-crash result early finishers kept must not be written to), and
// leave nothing in the registry.
func TestAllgathervAfterRebuildReturnsFreshParts(t *testing.T) {
	const procs = 4
	run := func(crashes []sim.CrashEvent) (*gatherRecObs, *World) {
		o := newGatherRecObs(procs)
		w := NewWorld(Config{Procs: procs, Seed: 11, Crashes: crashes})
		mustRun(t, w, gatherRecProcBody(o))
		allFinished(t, w)
		return o, w
	}
	clean, _ := run(nil)
	first, last := clean.finish0[0], clean.finish0[0]
	for _, at := range clean.finish0 {
		first, last = min(first, at), max(last, at)
	}
	if last-first < 2 {
		t.Fatalf("the clean run's ranks finish the allgatherv within %v of each other; the crash cannot land mid-collective", last-first)
	}
	o, w := run([]sim.CrashEvent{{At: (first + last) / 2, Target: 1, Restart: 50 * sim.Microsecond}})
	early := 0
	for me := 0; me < procs; me++ {
		if o.kept[me] != nil {
			early++
			if !reflect.DeepEqual(o.kept[me], o.snap[me]) {
				t.Errorf("rank %d: the pre-crash result it kept was overwritten after the rebuild:\n  was %v\n  now %v", me, o.snap[me], o.kept[me])
			}
		}
		if len(o.fresh[me]) != procs {
			t.Fatalf("rank %d: post-rebuild allgatherv returned %d parts, want %d", me, len(o.fresh[me]), procs)
		}
		for i, part := range o.fresh[me] {
			if part.Data != (gatherMark{i, 1}) {
				t.Errorf("rank %d: post-rebuild part %d is %v, want rank %d's epoch-1 part", me, i, part.Data, i)
			}
		}
	}
	if early == 0 || early == procs {
		t.Fatalf("%d of %d ranks had finished the allgatherv at the crash; the test needs some but not all", early, procs)
	}
	if n := len(w.gathers); n != 0 {
		t.Errorf("%d allgatherv results left in the registry after the run", n)
	}
}

// sharedGatherTrace is what one rank of the sharded workload records.
type sharedGatherTrace struct {
	Finish sim.Time
	Parts  [][]Part
}

// runSharedGather runs blocking and nonblocking allgathervs on the world
// communicator and on an odd-sized sub-communicator, so both algorithms
// and several registry keys are in flight across shard boundaries.
func runSharedGather(t *testing.T, procs, shards int) []sharedGatherTrace {
	t.Helper()
	traces := make([]sharedGatherTrace, procs)
	w := NewWorld(Config{Procs: procs, Seed: 7, Shards: shards, Place: func(rank int) int { return rank % shards }})
	mustRun(t, w, func(r *Rank) {
		c, me := r.World(), r.ID()
		tr := &traces[me]
		keep := func(parts []Part) { tr.Parts = append(tr.Parts, append([]Part(nil), parts...)) }
		r.Compute(sim.Time(me*13%7) * sim.Microsecond)
		keep(c.Allgatherv(r, Part{Bytes: int64(8 + me), Data: me}))
		sub := c.Split(r, me%3, me)
		keep(sub.Allgatherv(r, Part{Bytes: 16, Data: -me}))
		cr := c.Iallgatherv(r, Part{Bytes: 32, Data: me * me})
		keep(c.WaitColl(r, cr).([]Part))
		c.Barrier(r)
		tr.Finish = r.Now()
	})
	if n := len(w.gathers); n != 0 {
		t.Errorf("procs=%d shards=%d: %d allgatherv results left in the registry", procs, shards, n)
	}
	return traces
}

// TestSharedStateAllgathervAcrossShards checks the shared result under
// the parallel mode: members on different shards enter and leave the
// registry concurrently (CI runs this under -race -count=10), and the
// gathered parts and finish instants are identical for 1, 2 and 4 shards.
// 8 ranks take recursive doubling, 6 the ring; the color-by-3
// sub-communicators are rings of 2 or 3.
func TestSharedStateAllgathervAcrossShards(t *testing.T) {
	for _, procs := range []int{8, 6} {
		ref := runSharedGather(t, procs, 1)
		for me, tr := range ref {
			for i, part := range tr.Parts[0] {
				if part.Data != i || part.Bytes != int64(8+i) {
					t.Fatalf("procs=%d rank %d: world allgatherv part %d is %+v", procs, me, i, part)
				}
			}
		}
		for _, shards := range []int{2, 4} {
			if got := runSharedGather(t, procs, shards); !reflect.DeepEqual(got, ref) {
				t.Errorf("procs=%d shards=%d diverged from the 1-shard reference:\n  ref %+v\n  got %+v", procs, shards, ref, got)
			}
		}
	}
}

// collectiveBuckets counts the match buckets of every rank that are keyed
// by a collective tag, and all buckets including retired ones.
func collectiveBuckets(w *World) (collective, all int) {
	for _, rs := range w.ranks {
		x := &rs.match
		for k := range x.posted.all() {
			if retires(k.tag) {
				collective++
			}
		}
		for k := range x.queued.all() {
			if retires(k.tag) {
				collective++
			}
		}
		all += x.posted.len() + x.queued.len() + len(x.recvQFree) + len(x.msgQFree)
	}
	return collective, all
}

// TestPooledWorldSeesNothingOfAbandonedCollective leaves an allgatherv
// unfinished twice — a member that never joins (deadlock) and a member
// that panics while the others are inside — and reuses the world the way
// NewWorld reuses a pooled one (reset; called directly because sync.Pool
// may drop an entry). The next run must find no registered result, no
// stash entry and no collective bucket, and gather only its own parts.
func TestPooledWorldSeesNothingOfAbandonedCollective(t *testing.T) {
	const procs = 4
	cfg := Config{Procs: procs, Seed: 5}.withDefaults()
	gather := func(run int) FiberMain {
		return func(r *Rank, _ *sim.Fiber) sim.StepFunc {
			if run < 2 && r.ID() == 3 {
				if run == 1 {
					return r.FCompute(sim.Microsecond, func(*sim.Fiber) sim.StepFunc { panic("rank 3 gives up") })
				}
				return nil // never joins: the others deadlock inside
			}
			return r.World().FAllgatherv(r, Part{Bytes: 8, Data: gatherMark{r.ID(), run}}, func(parts []Part) sim.StepFunc {
				for i, part := range parts {
					if part.Data != (gatherMark{i, run}) {
						t.Errorf("run %d rank %d: part %d is %v", run, r.ID(), i, part.Data)
					}
				}
				return nil
			})
		}
	}
	w := NewWorld(cfg)
	if _, err := w.RunFibers(gather(0)); err == nil {
		t.Fatal("an allgatherv one member never joins did not deadlock")
	}
	if len(w.gathers) != 1 {
		t.Fatalf("deadlocked allgatherv left %d registry entries, want the unfinished one", len(w.gathers))
	}
	for run := 1; run <= 2; run++ {
		w.reset(cfg)
		if coll, _ := collectiveBuckets(w); len(w.gathers) != 0 || len(w.stash) != 0 || coll != 0 {
			t.Fatalf("before run %d the reused world holds %d allgatherv results, %d stash entries, %d collective buckets", run, len(w.gathers), len(w.stash), coll)
		}
		func() {
			defer func() {
				if rec := recover(); (rec != nil) != (run == 1) {
					t.Fatalf("run %d: recovered %v", run, rec)
				}
			}()
			if _, err := w.RunFibers(gather(run)); err != nil {
				t.Fatalf("run %d: %v", run, err)
			}
		}()
	}
	if n := len(w.gathers); n != 0 {
		t.Errorf("%d allgatherv results left after a complete run", n)
	}
}

// TestPoolReuseAllocatesNoBuckets pins the match index's freelists across
// world reuse: reset keeps every bucket (reused tags' in the tables,
// single-use ones retired), so an identical second run builds none.
func TestPoolReuseAllocatesNoBuckets(t *testing.T) {
	cfg := Config{Procs: 8, Seed: 9}.withDefaults()
	body := func(r *Rank, _ *sim.Fiber) sim.StepFunc {
		c := r.World()
		next, prev := (r.ID()+1)%r.World().Size(), (r.ID()-1+r.World().Size())%r.World().Size()
		i := 0
		var loop sim.StepFunc
		loop = func(*sim.Fiber) sim.StepFunc {
			if i >= 20 {
				return nil
			}
			i++
			return r.FCompute(sim.Time(r.ID()%3)*sim.Microsecond, func(*sim.Fiber) sim.StepFunc {
				return c.FSend(r, next, 0, 4096, nil, func(*sim.Fiber) sim.StepFunc {
					return c.FRecv(r, prev, 0, func(Status) sim.StepFunc {
						return c.FAllreduce(r, Part{Bytes: 8, Data: int64(1)}, SumInt64, nil, func(Part) sim.StepFunc {
							return c.FAllgatherv(r, Part{Bytes: 8}, func([]Part) sim.StepFunc { return loop })
						})
					})
				})
			})
		}
		return loop
	}
	w := NewWorld(cfg)
	buckets := func() int {
		if _, err := w.RunFibers(body); err != nil {
			t.Fatal(err)
		}
		w.reset(cfg)
		coll, all := collectiveBuckets(w)
		if coll != 0 {
			t.Errorf("reset left %d collective buckets in the tables", coll)
		}
		return all
	}
	first := buckets()
	if second := buckets(); first == 0 || second != first {
		t.Errorf("the first run built %d buckets and the world holds %d after the second, want the same non-zero count", first, second)
	}
}
