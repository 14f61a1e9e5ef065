package main

import (
	"math/rand"
	"runtime"
	"time"

	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/sim"
)

// runWorld times RunFibers alone (world construction is mpi.world.cycle_us'
// business) and returns the world to the pool.
func runWorld(w *mpi.World, body mpi.FiberMain) time.Duration {
	t0 := time.Now()
	_, err := w.RunFibers(body)
	el := time.Since(t0)
	must(err)
	w.Release()
	return el
}

// pingPong is a blocking 64-byte round trip between two ranks, every
// continuation hoisted out of the loop. Rank 0 reads the allocator's
// counters after a tenth of the rounds and at the end, so allocs is the
// steady state's figure per round trip. after, if set, sees the world
// before it is released.
func pingPong(cfg mpi.Config, rounds int, after func(*mpi.World)) (el time.Duration, allocs float64) {
	cfg.Procs = 2
	w := mpi.NewWorld(cfg)
	warm := rounds / 10
	var m0, m1 runtime.MemStats
	t0 := time.Now()
	_, err := w.RunFibers(func(r *mpi.Rank, _ *sim.Fiber) sim.StepFunc {
		c := r.World()
		i := 0
		var loop sim.StepFunc
		if r.ID() == 0 {
			recvd := func(mpi.Status) sim.StepFunc { return loop }
			sent := func(*sim.Fiber) sim.StepFunc { return c.FRecv(r, 1, 0, recvd) }
			loop = func(*sim.Fiber) sim.StepFunc {
				if i == warm {
					runtime.ReadMemStats(&m0)
				}
				if i >= rounds {
					runtime.ReadMemStats(&m1)
					return nil
				}
				i++
				return c.FSend(r, 1, 0, 64, nil, sent)
			}
			return loop
		}
		recvd := func(mpi.Status) sim.StepFunc { return c.FSend(r, 0, 0, 64, nil, loop) }
		loop = func(*sim.Fiber) sim.StepFunc {
			if i >= rounds {
				return nil
			}
			i++
			return c.FRecv(r, 0, 0, recvd)
		}
		return loop
	})
	el = time.Since(t0)
	must(err)
	if after != nil {
		after(w)
	}
	w.Release()
	return el, float64(m1.Mallocs-m0.Mallocs) / float64(rounds-warm)
}

func p2pPingPong(seed int64, scale float64) sample {
	rounds := scaled(200_000, scale)
	el, allocs := pingPong(mpi.Config{Seed: seed}, rounds, nil)
	return sample{ops: rounds, elapsed: el, counts: map[string]metric{
		"mpi.p2p.pingpong_allocs": {round2(allocs), "count"},
	}}
}

// reliablePingPong is pingPong over a fabric with a message-fault table,
// which arms the ack/retransmit protocol. At drop 1e-9 the protocol runs
// and nothing is lost; at 0.05 the retransmission count is reported, exact
// for a seed.
func reliablePingPong(drop float64, retransmits string) func(int64, float64) sample {
	return func(seed int64, scale float64) sample {
		rounds := scaled(60_000, scale)
		cfg := mpi.Config{Seed: seed, MsgFaults: &netmodel.MsgFaults{DropSeed: sim.Mix64(0x1055, seed), DropRate: drop}}
		var re int64
		el, _ := pingPong(cfg, rounds, func(w *mpi.World) { re = w.Retransmits() })
		s := sample{ops: rounds, elapsed: el}
		if retransmits != "" {
			s.counts = map[string]metric{retransmits: {float64(re), "count"}}
		}
		return s
	}
}

func round2(v float64) float64 { return float64(int64(v*100+0.5)) / 100 }

// p2pFanIn is 63 paced senders into one rank that keeps eight AnySource
// receives posted and waits on them with FWaitAny, re-posting the winner:
// the stream consumer's wait pattern without the stream.
func p2pFanIn(seed int64, scale float64) sample {
	const procs, window = 64, 8
	per := scaled(1200, scale)
	total := (procs - 1) * per
	rng := rand.New(rand.NewSource(seed))
	pace := make([]sim.Time, procs) // each sender's compute between sends
	for i := range pace {
		pace[i] = 80*sim.Microsecond + sim.Time(rng.Intn(40))*sim.Microsecond
	}
	el := runWorld(mpi.NewWorld(mpi.Config{Procs: procs, Seed: seed}), func(r *mpi.Rank, _ *sim.Fiber) sim.StepFunc {
		c := r.World()
		if r.ID() != 0 {
			n := 0
			var loop sim.StepFunc
			send := func(*sim.Fiber) sim.StepFunc { return c.FSend(r, 0, 0, 64, nil, loop) }
			loop = func(*sim.Fiber) sim.StepFunc {
				if n >= per {
					return nil
				}
				n++
				return r.FCompute(pace[r.ID()], send)
			}
			return loop
		}
		reqs := make([]*mpi.Request, window)
		posted, got := 0, 0
		for i := range reqs {
			if posted < total {
				reqs[i] = c.Irecv(r, mpi.AnySource, 0)
				posted++
			}
		}
		var wait sim.StepFunc
		won := func(i int, _ mpi.Status) sim.StepFunc {
			got++
			reqs[i] = nil // the wait consumed it
			if posted < total {
				reqs[i] = c.Irecv(r, mpi.AnySource, 0)
				posted++
			}
			if got == total {
				return nil
			}
			return wait
		}
		wait = func(*sim.Fiber) sim.StepFunc { return c.FWaitAny(r, reqs, won) }
		return wait
	})
	return sample{ops: total, elapsed: el}
}

// p2pUnexpected lands 64 senders x 256 messages on rank 0 before it posts a
// single receive, then receives them by (tag, source): every message goes
// through the unexpected queue and every receive probes the match index.
func p2pUnexpected(seed int64, scale float64) sample {
	const senders, msgs = 64, 256
	cycles := scaled(8, scale)
	el := runWorld(mpi.NewWorld(mpi.Config{Procs: senders + 1, Seed: seed}), func(r *mpi.Rank, _ *sim.Fiber) sim.StepFunc {
		c := r.World()
		cycle := 0
		var loop sim.StepFunc
		if r.ID() != 0 {
			loop = func(*sim.Fiber) sim.StepFunc {
				if cycle >= cycles {
					return nil
				}
				cycle++
				for k := 0; k < msgs; k++ {
					c.IsendAndFree(r, 0, k, 64, nil)
				}
				return c.FBarrier(r, loop)
			}
			return loop
		}
		var k, src int
		var next sim.StepFunc
		recvd := func(mpi.Status) sim.StepFunc { return next }
		next = func(*sim.Fiber) sim.StepFunc {
			if src++; src > senders {
				src = 1
				k++
			}
			if k >= msgs {
				return c.FBarrier(r, loop)
			}
			return c.FRecv(r, src, k, recvd)
		}
		loop = func(*sim.Fiber) sim.StepFunc {
			if cycle >= cycles {
				return nil
			}
			cycle++
			k, src = 0, 0
			// A second of compute: every send of the cycle arrives first.
			return r.FCompute(sim.Second, next)
		}
		return loop
	})
	return sample{ops: cycles * senders * msgs, elapsed: el}
}

// p2pHalo is a six-neighbour exchange on an 8x8x8 periodic grid: six
// receives and six sends posted, one FWaitAll over the twelve. One
// operation is one message.
func p2pHalo(seed int64, scale float64) sample {
	const side, procs = 8, 8 * 8 * 8
	iters := scaled(24, scale)
	el := runWorld(mpi.NewWorld(mpi.Config{Procs: procs, Seed: seed}), func(r *mpi.Rank, _ *sim.Fiber) sim.StepFunc {
		c := r.World()
		id := r.ID()
		x, y, z := id%side, id/side%side, id/(side*side)
		at := func(x, y, z int) int { return (x+side)%side + (y+side)%side*side + (z+side)%side*side*side }
		// Directions d and d^1 are opposite. A send towards nbr[d] carries
		// tag d, so what nbr[d] sends towards this rank carries tag d^1.
		nbr := [6]int{at(x+1, y, z), at(x-1, y, z), at(x, y+1, z), at(x, y-1, z), at(x, y, z+1), at(x, y, z-1)}
		reqs := make([]*mpi.Request, 12)
		n := 0
		var loop sim.StepFunc
		done := func([]mpi.Status) sim.StepFunc { return loop }
		loop = func(*sim.Fiber) sim.StepFunc {
			if n >= iters {
				return nil
			}
			n++
			for d := 0; d < 6; d++ {
				reqs[d] = c.Irecv(r, nbr[d], d^1)
			}
			for d := 0; d < 6; d++ {
				reqs[6+d] = c.FIsend(r, nbr[d], d, 4096, nil)
			}
			return c.FWaitAll(r, reqs, done)
		}
		return loop
	})
	return sample{ops: iters * procs * 6, elapsed: el}
}

// collective times a 512-rank collective; one operation is one rank's call.
// kbName, if set, also reports the kilobytes allocated per call.
func collective(iters int, kbName string, call func(r *mpi.Rank, then sim.StepFunc) sim.StepFunc) func(int64, float64) sample {
	return func(seed int64, scale float64) sample {
		const procs = 512
		n := scaled(iters, scale)
		w := mpi.NewWorld(mpi.Config{Procs: procs, Seed: seed})
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		el := runWorld(w, func(r *mpi.Rank, _ *sim.Fiber) sim.StepFunc {
			i := 0
			var loop sim.StepFunc
			loop = func(*sim.Fiber) sim.StepFunc {
				if i >= n {
					return nil
				}
				i++
				return call(r, loop)
			}
			return loop
		})
		runtime.ReadMemStats(&m1)
		s := sample{ops: n * procs, elapsed: el}
		if kbName != "" {
			kb := float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / float64(s.ops)
			s.counts = map[string]metric{kbName: {round2(kb), "kB"}}
		}
		return s
	}
}

func allreduce(r *mpi.Rank, then sim.StepFunc) sim.StepFunc {
	return r.World().FAllreduce(r, mpi.Part{Bytes: 8, Data: int64(1)}, mpi.SumInt64, nil,
		func(mpi.Part) sim.StepFunc { return then })
}

func allgatherv(r *mpi.Rank, then sim.StepFunc) sim.StepFunc {
	return r.World().FAllgatherv(r, mpi.Part{Bytes: 64},
		func([]mpi.Part) sim.StepFunc { return then })
}

// fileWrites is 64 ranks x 64 one-megabyte writes on one file, over worlds
// worlds so the timed region is long enough; one operation is one rank's
// write.
func fileWrites(worlds int, write func(f *mpi.File, r *mpi.Rank, then sim.StepFunc) sim.StepFunc) func(int64, float64) sample {
	return func(seed int64, scale float64) sample {
		const procs, writes = 64, 64
		worlds := scaled(worlds, scale)
		var el time.Duration
		for i := 0; i < worlds; i++ {
			el += runWorld(mpi.NewWorld(mpi.Config{Procs: procs, Seed: seed + int64(i)}), func(r *mpi.Rank, _ *sim.Fiber) sim.StepFunc {
				return r.World().FOpen(r, "particles", func(f *mpi.File) sim.StepFunc {
					n := 0
					var loop sim.StepFunc
					loop = func(*sim.Fiber) sim.StepFunc {
						if n >= writes {
							return nil
						}
						n++
						return write(f, r, loop)
					}
					return loop
				})
			})
		}
		return sample{ops: worlds * procs * writes, elapsed: el}
	}
}

// worldCycle is the fixed cost the co-scheduling and fault sweeps pay
// thousands of times: build (or recycle) a 64-rank world, run one barrier,
// release it.
func worldCycle(seed int64, scale float64) sample {
	n := scaled(80, scale)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		w := mpi.NewWorld(mpi.Config{Procs: 64, Seed: seed + int64(i)})
		_, err := w.RunFibers(func(r *mpi.Rank, _ *sim.Fiber) sim.StepFunc {
			return r.World().FBarrier(r, nil)
		})
		must(err)
		w.Release()
	}
	return sample{ops: n, elapsed: time.Since(t0)}
}

func mpiDrivers() []driver {
	return []driver{
		{"mpi.p2p.pingpong_ns", "ns", p2pPingPong},
		{"mpi.p2p.fanin_ns", "ns", p2pFanIn},
		{"mpi.p2p.unexpected_ns", "ns", p2pUnexpected},
		{"mpi.p2p.halo_ns", "ns", p2pHalo},
		{"mpi.coll.allreduce_ns", "ns", collective(16, "", allreduce)},
		{"mpi.coll.allgatherv_ns", "ns", collective(6, "mpi.coll.allgatherv_kb", allgatherv)},
		{"mpi.io.writeshared_ns", "ns", fileWrites(40, func(f *mpi.File, r *mpi.Rank, then sim.StepFunc) sim.StepFunc {
			return f.FWriteShared(r, 1<<20, then)
		})},
		{"mpi.io.writeall_ns", "ns", fileWrites(1, func(f *mpi.File, r *mpi.Rank, then sim.StepFunc) sim.StepFunc {
			return f.FWriteAll(r, 1<<20, then)
		})},
		{"mpi.world.cycle_us", "us", worldCycle},
		{"mpi.reliable.loss0_ns", "ns", reliablePingPong(1e-9, "")},
		{"mpi.reliable.loss5_ns", "ns", reliablePingPong(0.05, "mpi.reliable.loss5_retransmits")},
	}
}
