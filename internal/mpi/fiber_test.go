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
