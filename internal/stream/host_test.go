package stream

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestOperateBothForms streams skewed producers through a consumer whose
// operator computes per element: blocking CreateChannel/Operate/Free with
// an operator that calls Compute — blocking code nested in the chain of
// the blocking Operate — against FCreateChannel/FOperate/FFree with an
// operator that returns FCompute. End time, event count, traced busy time
// per rank and category and the consumers' statistics must be equal,
// first-come-first-served and fixed-order.
func TestOperateBothForms(t *testing.T) {
	const procs, producers, elems = 6, 4, 12
	type outcome struct {
		end    sim.Time
		events uint64
		busy   [procs]map[string]sim.Time // traced time per category
		stats  [procs]Stats
	}
	run := func(t *testing.T, opts Options, blocking, traced bool) outcome {
		var o outcome
		cfg := mpi.Config{Procs: procs, Seed: 5}
		rec := &trace.Recorder{}
		if traced {
			cfg.Tracer = rec
		}
		w := mpi.NewWorld(cfg)
		role := func(r *mpi.Rank) Role {
			if r.ID() < producers {
				return Producer
			}
			return Consumer
		}
		work := func(r *mpi.Rank) sim.Time { return sim.Time(1+r.ID()) * 3 * sim.Microsecond }
		cost := func(e Element) sim.Time { return sim.Time(e.Data.(int)%5+1) * sim.Microsecond }
		var err error
		if blocking {
			o.end, err = w.Run(func(r *mpi.Rank) {
				ch := CreateChannel(r, r.World(), role(r))
				s := ch.Attach(r, opts)
				if role(r) == Producer {
					for i := 0; i < elems; i++ {
						r.Compute(work(r))
						s.Isend(r, Element{Data: r.ID()*100 + i})
					}
					s.Terminate(r)
				} else {
					o.stats[r.ID()] = s.Operate(r, func(r *mpi.Rank, e Element, src int) {
						r.Compute(cost(e))
					})
				}
				ch.Free(r)
			})
		} else {
			o.end, err = w.RunFibers(func(r *mpi.Rank, _ *sim.Fiber) sim.StepFunc {
				return FCreateChannel(r, r.World(), role(r), func(ch *Channel) sim.StepFunc {
					s := ch.Attach(r, opts)
					free := func(*sim.Fiber) sim.StepFunc { return ch.FFree(r, nil) }
					if role(r) == Consumer {
						return s.FOperate(r, func(r *mpi.Rank, e Element, src int, then sim.StepFunc) sim.StepFunc {
							return r.FCompute(cost(e), then)
						}, func(st Stats) sim.StepFunc {
							o.stats[r.ID()] = st
							return free
						})
					}
					i := 0
					var produce sim.StepFunc
					produce = func(*sim.Fiber) sim.StepFunc {
						if i == elems {
							s.Terminate(r)
							return free
						}
						return r.FCompute(work(r), func(*sim.Fiber) sim.StepFunc {
							s.Isend(r, Element{Data: r.ID()*100 + i})
							i++
							return produce
						})
					}
					return produce
				})
			})
		}
		if err != nil {
			t.Fatalf("blocking=%v traced=%v: %v", blocking, traced, err)
		}
		o.events = w.Engine().Events()
		for rank := range o.busy {
			o.busy[rank] = rec.Busy(rank)
		}
		return o
	}
	for _, fixed := range []bool{false, true} {
		opts := Options{ElementBytes: 2048, FixedOrder: fixed}
		t.Run(fmt.Sprintf("fixed=%v", fixed), func(t *testing.T) {
			ref := run(t, opts, false, false)
			if got := ref.stats[procs-1].ElementsReceived; got != elems*producers/(procs-producers) {
				t.Fatalf("consumer %d received %d elements", procs-1, got)
			}
			for _, traced := range []bool{false, true} {
				b, f := run(t, opts, true, traced), run(t, opts, false, traced)
				if b.end != ref.end || f.end != ref.end || b.events != ref.events || f.events != ref.events {
					t.Errorf("traced=%v: blocking ends %v after %d events, step functions %v after %d, untraced step functions %v after %d",
						traced, b.end, b.events, f.end, f.events, ref.end, ref.events)
				}
				if b.stats != f.stats {
					t.Errorf("traced=%v: consumer statistics differ:\n blocking       %+v\n step functions %+v", traced, b.stats, f.stats)
				}
				if traced && (len(b.busy[0]) == 0 || !reflect.DeepEqual(b.busy, f.busy)) {
					t.Errorf("busy time per rank and category:\n blocking       %v\n step functions %v", b.busy, f.busy)
				}
			}
		})
	}
}

// TestOperateOnStepFunctionBodyPanics calls the blocking Operate from a
// RunFibers body: it must panic naming the call, the rank and FOperate.
func TestOperateOnStepFunctionBodyPanics(t *testing.T) {
	defer func() {
		msg := fmt.Sprint(recover())
		for _, want := range []string{"Operate is a blocking call", "rank 1", "use FOperate"} {
			if !strings.Contains(msg, want) {
				t.Errorf("panic %q does not say %q", msg, want)
			}
		}
	}()
	w := mpi.NewWorld(mpi.Config{Procs: 2, Seed: 1})
	w.RunFibers(func(r *mpi.Rank, _ *sim.Fiber) sim.StepFunc {
		role := Producer
		if r.ID() == 1 {
			role = Consumer
		}
		return FCreateChannel(r, r.World(), role, func(ch *Channel) sim.StepFunc {
			s := ch.Attach(r, Options{})
			if role == Consumer {
				s.Operate(r, func(*mpi.Rank, Element, int) {})
			}
			return nil
		})
	})
}
