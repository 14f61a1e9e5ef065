package mpi

import (
	"reflect"
	"testing"

	"repro/internal/sim"
)

// busyTracer sums span time per (rank, category), the quantity a trace
// summary reports; zero-length spans count for nothing, as in
// trace.Recorder.
type busyTracer map[int]map[string]sim.Time

func (b busyTracer) Span(rank int, category, label string, start, end sim.Time) {
	if b[rank] == nil {
		b[rank] = map[string]sim.Time{}
	}
	b[rank][category] += end - start
}

// runBothWays runs the same logical program once as blocking rank bodies
// and once as step-function bodies and asserts identical final virtual
// time and identical engine event counts: the blocking calls run the F
// forms on a hosted fiber, and the host must add no event and move no
// instant. It then repeats the pair under a Tracer: tracing observes the
// one path, so it must leave time and event count where they were, and
// both kinds of body must report equal busy time per rank and category.
func runBothWays(t *testing.T, procs int, procBody func(*Rank), fibBody FiberMain) sim.Time {
	t.Helper()
	type outcome struct {
		end    sim.Time
		events uint64
		busy   busyTracer
	}
	run := func(fibers, traced bool) outcome {
		cfg := Config{Procs: procs, Seed: 42}
		var busy busyTracer
		if traced {
			busy = busyTracer{}
			cfg.Tracer = busy
		}
		w := NewWorld(cfg)
		var end sim.Time
		var err error
		if fibers {
			end, err = w.RunFibers(fibBody)
		} else {
			end, err = w.Run(procBody)
		}
		if err != nil {
			t.Fatalf("fibers=%v traced=%v: %v", fibers, traced, err)
		}
		return outcome{end, w.Engine().Events(), busy}
	}
	p, f := run(false, false), run(true, false)
	if p.end != f.end {
		t.Fatalf("final time: procs %v, fibers %v", p.end, f.end)
	}
	if p.events != f.events {
		t.Fatalf("event count: procs %d, fibers %d", p.events, f.events)
	}
	tp, tf := run(false, true), run(true, true)
	if tp.end != p.end || tf.end != p.end || tp.events != p.events || tf.events != p.events {
		t.Fatalf("tracing moved the trajectory: end %v/%v events %d/%d, untraced %v and %d",
			tp.end, tf.end, tp.events, tf.events, p.end, p.events)
	}
	if len(tp.busy) == 0 || !reflect.DeepEqual(tp.busy, tf.busy) {
		t.Errorf("traced busy time per rank and category:\n procs  %v\n fibers %v", tp.busy, tf.busy)
	}
	return f.end
}

// TestFiberPingPongMatchesProcs exercises FSend/FRecv against Send/Recv:
// a two-rank request-reply loop with interleaved compute must produce a
// bit-identical trajectory under both representations.
func TestFiberPingPongMatchesProcs(t *testing.T) {
	const rounds = 20
	procBody := func(r *Rank) {
		c := r.World()
		for i := 0; i < rounds; i++ {
			if r.ID() == 0 {
				r.Compute(3 * sim.Microsecond)
				c.Send(r, 1, 7, 1024, i)
				c.Recv(r, 1, 8)
			} else {
				c.Recv(r, 0, 7)
				r.Compute(5 * sim.Microsecond)
				c.Send(r, 0, 8, 512, i)
			}
		}
	}
	fibBody := func(r *Rank, f *sim.Fiber) sim.StepFunc {
		c := r.World()
		i := 0
		var loop sim.StepFunc
		loop = func(_ *sim.Fiber) sim.StepFunc {
			if i >= rounds {
				return nil
			}
			n := i
			i++
			if r.ID() == 0 {
				return r.FCompute(3*sim.Microsecond, func(_ *sim.Fiber) sim.StepFunc {
					return c.FSend(r, 1, 7, 1024, n, func(_ *sim.Fiber) sim.StepFunc {
						return c.FRecv(r, 1, 8, func(Status) sim.StepFunc { return loop })
					})
				})
			}
			return c.FRecv(r, 0, 7, func(Status) sim.StepFunc {
				return r.FCompute(5*sim.Microsecond, func(_ *sim.Fiber) sim.StepFunc {
					return c.FSend(r, 0, 8, 512, n, func(_ *sim.Fiber) sim.StepFunc { return loop })
				})
			})
		}
		return loop
	}
	runBothWays(t, 2, procBody, fibBody)
}

// TestFiberCollectivesMatchProcs drives barrier, allreduce and allgatherv
// through both representations at a non-power-of-two size (covering the
// reduce+bcast fallback) and checks payload correctness on the fiber side.
// It closes with a nonblocking reduce waited on after more compute, with
// Open and both shared-file write paths, and with a Split whose halves
// then synchronise, so runBothWays' traced pass compares every span kind
// the runtime emits (comp, wait, waitcoll, write_shared, write_all; the
// WaitAny tests add waitany).
func TestFiberCollectivesMatchProcs(t *testing.T) {
	const procs = 6
	procBody := func(r *Rank) {
		c := r.World()
		c.Barrier(r)
		r.Compute(sim.Time(r.ID()+1) * sim.Microsecond)
		sum := c.Allreduce(r, Part{Bytes: 8, Data: float64(r.ID())}, SumFloat64, nil)
		if got := sum.Data.(float64); got != 15 {
			t.Errorf("proc allreduce sum %v, want 15", got)
		}
		parts := c.Allgatherv(r, Part{Bytes: 8, Data: r.ID() * 10})
		for i, p := range parts {
			if p.Data.(int) != i*10 {
				t.Errorf("proc allgather[%d] = %v", i, p.Data)
			}
		}
		c.Barrier(r)
		cr := c.Ireduce(r, 0, Part{Bytes: 1 << 16, Data: int64(1)}, SumInt64, nil)
		r.Compute(sim.Time(procs-r.ID()) * sim.Microsecond)
		c.WaitColl(r, cr)
		file := c.Open(r, "out.dat")
		file.WriteShared(r, 1<<20)
		file.WriteAll(r, 1<<18)
		half := c.Split(r, r.ID()%2, -r.ID())
		if half.Size() != procs/2 || half.RankOf(r) != (procs-1-r.ID())/2 {
			t.Errorf("proc split: rank %d is %d of %d", r.ID(), half.RankOf(r), half.Size())
		}
		half.Barrier(r)
	}
	fibBody := func(r *Rank, f *sim.Fiber) sim.StepFunc {
		c := r.World()
		tail := func(_ *sim.Fiber) sim.StepFunc {
			return c.FIreduce(r, 0, Part{Bytes: 1 << 16, Data: int64(1)}, SumInt64, nil, func(cr *CollRequest) sim.StepFunc {
				return r.FCompute(sim.Time(procs-r.ID())*sim.Microsecond, func(_ *sim.Fiber) sim.StepFunc {
					return c.FWaitColl(r, cr, func(interface{}) sim.StepFunc {
						return c.FOpen(r, "out.dat", func(file *File) sim.StepFunc {
							return file.FWriteShared(r, 1<<20, func(_ *sim.Fiber) sim.StepFunc {
								return file.FWriteAll(r, 1<<18, func(*sim.Fiber) sim.StepFunc {
									return c.FSplit(r, r.ID()%2, -r.ID(), func(half *Comm) sim.StepFunc {
										if half.Size() != procs/2 || half.RankOf(r) != (procs-1-r.ID())/2 {
											t.Errorf("fiber split: rank %d is %d of %d", r.ID(), half.RankOf(r), half.Size())
										}
										return half.FBarrier(r, nil)
									})
								})
							})
						})
					})
				})
			})
		}
		return c.FBarrier(r, func(_ *sim.Fiber) sim.StepFunc {
			return r.FCompute(sim.Time(r.ID()+1)*sim.Microsecond, func(_ *sim.Fiber) sim.StepFunc {
				return c.FAllreduce(r, Part{Bytes: 8, Data: float64(r.ID())}, SumFloat64, nil, func(sum Part) sim.StepFunc {
					if got := sum.Data.(float64); got != 15 {
						t.Errorf("fiber allreduce sum %v, want 15", got)
					}
					return c.FAllgatherv(r, Part{Bytes: 8, Data: r.ID() * 10}, func(parts []Part) sim.StepFunc {
						for i, p := range parts {
							if p.Data.(int) != i*10 {
								t.Errorf("fiber allgather[%d] = %v", i, p.Data)
							}
						}
						return c.FBarrier(r, tail)
					})
				})
			})
		})
	}
	runBothWays(t, procs, procBody, fibBody)
}

// TestFiberNonblockingCollectivesMatchProcs starts each of the three
// nonblocking collectives, computes, and waits for it: WaitColl against
// FWaitColl. Ibarrier has no public F form, so the step-function body
// starts its helper with fstartColl itself, without a host.
func TestFiberNonblockingCollectivesMatchProcs(t *testing.T) {
	const procs = 6
	kinds := []struct {
		name   string
		start  func(c *Comm, r *Rank) *CollRequest
		fstart func(c *Comm, r *Rank, then func(*CollRequest) sim.StepFunc) sim.StepFunc
		want   func(me int) interface{}
	}{
		{"Ibarrier",
			func(c *Comm, r *Rank) *CollRequest { return c.Ibarrier(r) },
			func(c *Comm, r *Rank, then func(*CollRequest) sim.StepFunc) sim.StepFunc {
				return c.fstartColl(r, "ibarrier", func(hf *sim.Fiber, me, tag int, cr *CollRequest) sim.StepFunc {
					return c.fbarrierOn(r, hf, me, tag, func(*sim.Fiber) sim.StepFunc { return c.finishColl(r, cr) })
				}, then)
			},
			func(int) interface{} { return nil }},
		{"Ireduce",
			func(c *Comm, r *Rank) *CollRequest {
				return c.Ireduce(r, 2, Part{Bytes: 1 << 14, Data: int64(r.ID())}, SumInt64, LinearCost(sim.Nanosecond))
			},
			func(c *Comm, r *Rank, then func(*CollRequest) sim.StepFunc) sim.StepFunc {
				return c.FIreduce(r, 2, Part{Bytes: 1 << 14, Data: int64(r.ID())}, SumInt64, LinearCost(sim.Nanosecond), then)
			},
			func(me int) interface{} {
				if me == 2 {
					return Part{Bytes: 1 << 14, Data: int64(15)}
				}
				return Part{}
			}},
		{"Iallgatherv",
			func(c *Comm, r *Rank) *CollRequest { return c.Iallgatherv(r, Part{Bytes: 256, Data: r.ID()}) },
			func(c *Comm, r *Rank, then func(*CollRequest) sim.StepFunc) sim.StepFunc {
				return c.FIallgatherv(r, Part{Bytes: 256, Data: r.ID()}, then)
			},
			func(int) interface{} {
				parts := make([]Part, procs)
				for i := range parts {
					parts[i] = Part{Bytes: 256, Data: i}
				}
				return parts
			}},
	}
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			check := func(form string, me int, got interface{}) {
				if want := k.want(me); !reflect.DeepEqual(got, want) {
					t.Errorf("%s, rank %d: result %v, want %v", form, me, got, want)
				}
			}
			runBothWays(t, procs, func(r *Rank) {
				c := r.World()
				c.Barrier(r)
				cr := k.start(c, r)
				r.Compute(sim.Time(procs-r.ID()) * sim.Microsecond)
				check("blocking", r.ID(), c.WaitColl(r, cr))
				c.Barrier(r)
			}, func(r *Rank, _ *sim.Fiber) sim.StepFunc {
				c := r.World()
				return c.FBarrier(r, func(*sim.Fiber) sim.StepFunc {
					return k.fstart(c, r, func(cr *CollRequest) sim.StepFunc {
						return r.FCompute(sim.Time(procs-r.ID())*sim.Microsecond, func(*sim.Fiber) sim.StepFunc {
							return c.FWaitColl(r, cr, func(v interface{}) sim.StepFunc {
								check("step function", r.ID(), v)
								return c.FBarrier(r, nil)
							})
						})
					})
				})
			})
		})
	}
}

// TestFiberWaitAllMatchesProcs exercises the coalescing FWaitAll against
// WaitAll with a mix of sends and receives.
func TestFiberWaitAllMatchesProcs(t *testing.T) {
	const procs = 4
	procBody := func(r *Rank) {
		c := r.World()
		next := (r.ID() + 1) % procs
		prev := (r.ID() - 1 + procs) % procs
		for it := 0; it < 5; it++ {
			reqs := []*Request{
				c.Isend(r, next, 1, 2048, nil),
				c.Isend(r, prev, 2, 2048, nil),
				c.Irecv(r, prev, 1),
				c.Irecv(r, next, 2),
			}
			r.Compute(2 * sim.Microsecond)
			c.WaitAll(r, reqs...)
		}
	}
	fibBody := func(r *Rank, f *sim.Fiber) sim.StepFunc {
		c := r.World()
		next := (r.ID() + 1) % procs
		prev := (r.ID() - 1 + procs) % procs
		it := 0
		var loop sim.StepFunc
		loop = func(_ *sim.Fiber) sim.StepFunc {
			if it >= 5 {
				return nil
			}
			it++
			reqs := []*Request{
				c.FIsend(r, next, 1, 2048, nil),
				c.FIsend(r, prev, 2, 2048, nil),
				c.Irecv(r, prev, 1),
				c.Irecv(r, next, 2),
			}
			return r.FCompute(2*sim.Microsecond, func(_ *sim.Fiber) sim.StepFunc {
				return c.FWaitAll(r, reqs, func([]Status) sim.StepFunc { return loop })
			})
		}
		return loop
	}
	runBothWays(t, procs, procBody, fibBody)
}

// TestFiberWaitAnyMatchesProcs exercises FWaitAny ordering against
// WaitAny: a consumer draining two producers first-come-first-served.
func TestFiberWaitAnyMatchesProcs(t *testing.T) {
	const msgs = 8
	procBody := func(r *Rank) {
		c := r.World()
		switch r.ID() {
		case 0, 1:
			for i := 0; i < msgs; i++ {
				r.Compute(sim.Time(1+r.ID()*3) * sim.Microsecond)
				c.Send(r, 2, r.ID(), 4096, nil)
			}
		case 2:
			reqs := []*Request{c.Irecv(r, 0, 0), c.Irecv(r, 1, 1)}
			for got := 0; got < 2*msgs; got++ {
				idx, _ := c.WaitAny(r, reqs)
				r.Compute(2 * sim.Microsecond)
				reqs[idx] = c.Irecv(r, idx, idx)
				if rem := 2*msgs - got - 1; rem < 2 {
					reqs[1-idx] = nil
				}
			}
		}
	}
	fibBody := func(r *Rank, f *sim.Fiber) sim.StepFunc {
		c := r.World()
		switch r.ID() {
		case 0, 1:
			i := 0
			var loop sim.StepFunc
			loop = func(_ *sim.Fiber) sim.StepFunc {
				if i >= msgs {
					return nil
				}
				i++
				return r.FCompute(sim.Time(1+r.ID()*3)*sim.Microsecond, func(_ *sim.Fiber) sim.StepFunc {
					return c.FSend(r, 2, r.ID(), 4096, nil, loop)
				})
			}
			return loop
		default:
			reqs := []*Request{c.Irecv(r, 0, 0), c.Irecv(r, 1, 1)}
			got := 0
			var loop sim.StepFunc
			loop = func(_ *sim.Fiber) sim.StepFunc {
				if got >= 2*msgs {
					return nil
				}
				return c.FWaitAny(r, reqs, func(idx int, _ Status) sim.StepFunc {
					got++
					return r.FCompute(2*sim.Microsecond, func(_ *sim.Fiber) sim.StepFunc {
						reqs[idx] = c.Irecv(r, idx, idx)
						if rem := 2*msgs - got; rem < 2 {
							reqs[1-idx] = nil
						}
						return loop
					})
				})
			}
			return loop
		}
	}
	runBothWays(t, 3, procBody, fibBody)
}

// TestWorldPoolReuseDeterminism checks that a world recycled through
// Release/NewWorld reproduces a fresh world's trajectory exactly, across
// different sizes and both representations.
func TestWorldPoolReuseDeterminism(t *testing.T) {
	body := func(r *Rank) {
		c := r.World()
		next := (r.ID() + 1) % r.World().Size()
		prev := (r.ID() - 1 + r.World().Size()) % r.World().Size()
		for i := 0; i < 4; i++ {
			c.Send(r, next, 0, 8192, nil)
			c.Recv(r, prev, 0)
			c.Allreduce(r, Part{Bytes: 8, Data: 1.0}, SumFloat64, nil)
		}
	}
	run := func(procs int) sim.Time {
		w := NewWorld(Config{Procs: procs, Seed: 9})
		end, err := w.Run(body)
		if err != nil {
			t.Fatal(err)
		}
		w.Release()
		return end
	}
	first8 := run(8)
	run(16) // force a differently-sized reset in between
	run(3)
	if again := run(8); again != first8 {
		t.Fatalf("recycled world diverged: %v vs %v", again, first8)
	}
}

// Aliases keeping the fiber benchmarks readable.
type (
	simFiber = sim.Fiber
	simStep  = sim.StepFunc
)

// TestStatusScratchAllocFree guards WaitAll's status-slice reuse: once
// warmed to a size, the rank scratch must hand out slices without
// allocating.
func TestStatusScratchAllocFree(t *testing.T) {
	rs := &rankState{}
	rs.statusScratch(8)
	if a := testing.AllocsPerRun(200, func() { rs.statusScratch(8) }); a != 0 {
		t.Errorf("statusScratch allocates %.0f allocs/op after warm-up, want 0", a)
	}
}

// TestFiberWaitAllocFree guards the pooled fiber wait states: a warmed
// world must serve fwait/fwaitAny/fwaitAll cycles from its freelists.
func TestFiberWaitAllocFree(t *testing.T) {
	w := NewWorld(Config{Procs: 2, Seed: 3})
	body := func(r *Rank, f *sim.Fiber) sim.StepFunc {
		c := r.World()
		i := 0
		var loop sim.StepFunc
		loop = func(_ *sim.Fiber) sim.StepFunc {
			if i >= 50 {
				return nil
			}
			i++
			if r.ID() == 0 {
				return c.FSend(r, 1, 0, 64, nil, func(_ *sim.Fiber) sim.StepFunc {
					return c.FRecv(r, 1, 0, func(Status) sim.StepFunc { return loop })
				})
			}
			return c.FRecv(r, 0, 0, func(Status) sim.StepFunc {
				return c.FSend(r, 0, 0, 64, nil, loop)
			})
		}
		return loop
	}
	if _, err := w.RunFibers(body); err != nil {
		t.Fatal(err)
	}
	if len(w.fwFree) == 0 {
		t.Fatal("no pooled fwait states after a fiber run")
	}
	free := len(w.fwFree)
	w.Release()
	w2 := NewWorld(Config{Procs: 2, Seed: 3})
	if _, err := w2.RunFibers(body); err != nil {
		t.Fatal(err)
	}
	if got := len(w2.fwFree); got > free {
		t.Errorf("recycled world grew its fwait pool to %d (was %d): waits are allocating new states", got, free)
	}
}
