// File I/O in continuation form: the one implementation of Open and of
// the shared-pointer and collective write paths, which the blocking calls
// in io.go run through Rank.Block.
package mpi

import (
	"fmt"

	"repro/internal/sim"
)

// FTest is Test in continuation form: the completion check is free, but
// the first successful test of a receive charges the receive overhead,
// which may advance the clock. then receives (ok, status).
func (c *Comm) FTest(r *Rank, req *Request, then func(bool, Status) sim.StepFunc) sim.StepFunc {
	req.checkLive()
	if !req.completedBy(r.rs.eng.Now()) {
		return then(false, Status{})
	}
	if req.status.Err != nil {
		return r.failNow()
	}
	req.done = true
	if req.isRecv && !req.ovCharged {
		req.ovCharged = true
		return r.fib.Advance(r.w.cfg.Net.RecvOverhead, func(_ *sim.Fiber) sim.StepFunc {
			return then(true, req.status)
		})
	}
	return then(true, req.status)
}

// FOpen is Open in continuation form: rendezvous bookkeeping closed by a
// barrier. The file is delivered to then.
func (c *Comm) FOpen(r *Rank, name string, then func(*File) sim.StepFunc) sim.StepFunc {
	w := c.w
	if w.revoked {
		return r.failNow()
	}
	w.checkIOShard(c)
	key := fmt.Sprintf("%d:%s", c.id, name)
	w.mu.Lock()
	st, ok := w.opens[key]
	if !ok {
		st = &openState{file: &File{w: w, comm: c, name: name}}
		w.opens[key] = st
		w.files[key] = st.file
	}
	w.mu.Unlock()
	return c.FBarrier(r, func(_ *sim.Fiber) sim.StepFunc {
		return then(st.file)
	})
}

// fReserveEnd books dur of stripe time for the world's job at the rank's
// current instant and delivers the granted slot's end, which the caller
// advances to. It is the single reservation seam of every write path. On
// a classic (or single-world sharded) bank the grant is the synchronous
// Reserve call. On a bank attached to a shard group the reservation is
// the two-phase window-boundary protocol: the request travels to the owner
// shard carrying this rank's delivery priority, the rank parks (keeping
// any accumulated debt — AdvanceTo folds it after the wake), and the grant
// wakes it two lookaheads later with the slot.
func (f *File) fReserveEnd(r *Rank, dur sim.Time, then func(end sim.Time) sim.StepFunc) sim.StepFunc {
	w := f.w
	fib := r.fib
	if !w.fs.Sharded() {
		_, end := w.fs.Reserve(w.cfg.Job, fib.Now(), dur)
		return then(end)
	}
	req := w.fs.PostReserve(r.rs.eng, w.cfg.Job, dur, r.rs.deliveryPri(), fib)
	return fib.ParkKeepingDebt("bank reservation", func(_ *sim.Fiber) sim.StepFunc {
		return then(req.End)
	})
}

// FWriteShared is WriteShared in continuation form: token-serialized
// shared-pointer append, then stripe occupancy.
func (f *File) FWriteShared(r *Rank, bytes int64, then sim.StepFunc) sim.StepFunc {
	if bytes < 0 {
		panic("mpi: negative I/O size")
	}
	if f.w.revoked {
		return r.failNow()
	}
	fs := f.w.cfg.FS
	fib := r.fib
	then = r.ftrace("io", "write_shared", fib.Now(), then)
	// Demand spans the whole operation, including the queue for the
	// shared-pointer token: a rank serialized behind the pointer has
	// queued I/O the bank should count.
	f.w.ioBegin(r.rs)
	return f.token.FAcquire(fib, "shared file pointer", func(_ *sim.Fiber) sim.StepFunc {
		return fib.Advance(fs.SharedPointerLatency+fs.PerOpLatency, func(_ *sim.Fiber) sim.StepFunc {
			f.size += bytes
			f.bytesWritten += bytes
			f.ops++
			return f.fReserveEnd(r, fs.WriteTime(bytes), func(end sim.Time) sim.StepFunc {
				f.token.Release(fib)
				return fib.AdvanceTo(end, func(f2 *sim.Fiber) sim.StepFunc {
					f.w.ioEnd(r.rs)
					return then(f2)
				})
			})
		})
	})
}

// FWriteAll is WriteAll in continuation form: allgather the sizes, ship
// data to aggregators, aggregators issue one large write, all close with
// a barrier.
func (f *File) FWriteAll(r *Rank, bytes int64, then sim.StepFunc) sim.StepFunc {
	if bytes < 0 {
		panic("mpi: negative I/O size")
	}
	if f.w.revoked {
		return r.failNow()
	}
	c := f.comm
	me := c.RankOf(r)
	p := c.Size()
	fs := f.w.cfg.FS
	fib := r.fib
	then = r.ftrace("io", "write_all", fib.Now(), then)
	// Every member is I/O-active for the duration of the collective: the
	// view exchange and the shipping to aggregators are part of the file
	// operation even for ranks that never touch a stripe.
	f.w.ioBegin(r.rs)

	// Phase 0: file-view recalculation. Every rank learns every size.
	return c.FAllgatherv(r, Part{Bytes: 8, Data: bytes}, func(sizes []Part) sim.StepFunc {
		// Phase 1: ship data to aggregators (one per stripe, at most P).
		na := fs.Stripes
		if na > p {
			na = p
		}
		agg := me * na / p
		aggRank := (agg*p + na - 1) / na
		tag := c.nextCollTag(me)
		var myReqs []*Request
		if me != aggRank {
			myReqs = append(myReqs, c.Isend(r, aggRank, tag, bytes, nil))
		}
		finish := func(_ *sim.Fiber) sim.StepFunc {
			return c.FWaitAll(r, myReqs, func([]Status) sim.StepFunc {
				// The collective completes together.
				return c.FBarrier(r, func(f2 *sim.Fiber) sim.StepFunc {
					f.w.ioEnd(r.rs)
					return then(f2)
				})
			})
		}
		if me != aggRank {
			return finish
		}
		// Collect from all ranks whose aggregator is me.
		var total int64
		var reqs []*Request
		for other := 0; other < p; other++ {
			if other == me {
				total += bytes
				continue
			}
			if other*na/p == agg {
				reqs = append(reqs, c.irecvFor(r, other, tag))
			}
		}
		i := 0
		var collect sim.StepFunc
		// Hoisted out of the collect loop: one closure per WriteAll, not
		// one per collected contribution.
		onCollected := func(st Status) sim.StepFunc {
			sz, _ := sizes[st.Source].Data.(int64)
			total += sz
			return collect
		}
		collect = func(_ *sim.Fiber) sim.StepFunc {
			if i < len(reqs) {
				q := reqs[i]
				i++
				return c.fwaitOn(r, fib, q, onCollected)
			}
			// Phase 2: one large write per aggregator. Interleaved per-rank
			// regions defeat stripe sequentiality (CollInterleaveFactor).
			return fib.Advance(fs.PerOpLatency, func(_ *sim.Fiber) sim.StepFunc {
				return f.fReserveEnd(r, fs.CollWriteTime(total), func(end sim.Time) sim.StepFunc {
					f.ops++
					f.size += total
					f.bytesWritten += total
					return fib.AdvanceTo(end, finish)
				})
			})
		}
		return collect
	})
}
