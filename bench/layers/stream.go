package main

import (
	"runtime"

	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/stream"
)

// streamElements is the decoupled experiments' data path: 15 producers
// compute a slice and inject one 64-byte element, one consumer operates on
// elements first come, first served. Allocations cover the whole run,
// channel set-up included, per element received.
func streamElements(seed int64, scale float64) sample {
	const procs, producers = 16, 15
	per := scaled(200_000, scale) / producers
	if per < 1 {
		per = 1
	}
	w := mpi.NewWorld(mpi.Config{Procs: procs, Seed: seed})
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	el := runWorld(w, func(r *mpi.Rank, _ *sim.Fiber) sim.StepFunc {
		role := stream.Producer
		if r.ID() >= producers {
			role = stream.Consumer
		}
		return stream.FCreateChannel(r, r.World(), role, func(ch *stream.Channel) sim.StepFunc {
			st := ch.Attach(r, stream.Options{ElementBytes: 64})
			free := func(*sim.Fiber) sim.StepFunc { return ch.FFree(r, nil) }
			if role == stream.Consumer {
				return st.FOperate(r,
					func(_ *mpi.Rank, _ stream.Element, _ int, then sim.StepFunc) sim.StepFunc { return then },
					func(stream.Stats) sim.StepFunc { return free })
			}
			n := 0
			var loop sim.StepFunc
			inject := sim.Then(func() { st.Isend(r, stream.Element{}) }, &loop)
			loop = func(*sim.Fiber) sim.StepFunc {
				if n >= per {
					st.Terminate(r)
					return free
				}
				n++
				return r.FCompute(10*sim.Microsecond, inject)
			}
			return loop
		})
	})
	runtime.ReadMemStats(&m1)
	elements := per * producers
	return sample{ops: elements, elapsed: el, counts: map[string]metric{
		"stream.element_allocs": {round2(float64(m1.Mallocs-m0.Mallocs) / float64(elements)), "count"},
	}}
}

func streamDrivers() []driver {
	return []driver{{"stream.element_ns", "ns", streamElements}}
}
