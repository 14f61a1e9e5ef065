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
		return r.fib.Advance(fabric.RecvOverhead, func(_ *sim.Fiber) sim.StepFunc {
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

// reserveEnd books dur of stripe time for the world's job at the rank's
// current instant and reports the granted slot's end, which the caller
// advances to. It is the single reservation seam of every write path.
func (f *File) reserveEnd(r *Rank, dur sim.Time) sim.Time {
	_, end := f.w.fs.Reserve(f.w.cfg.Job, r.fib.Now(), dur)
	return end
}

// fwrite is the pooled state of one shared-pointer or collective write:
// the closure environment of its steps hoisted into a struct, as fcoll is
// for a collective, so a write builds no continuation per call. Its steps
// are bound once per struct lifetime, and it returns to the rank's pool
// just before the caller's continuation runs.
type fwrite struct {
	f     *File
	r     *Rank
	bytes int64
	then  sim.StepFunc // the caller's continuation, traced if a tracer is set

	// FWriteAll: the allgathered sizes; a non-aggregator's one send, or an
	// aggregator's receives with the index of the next to wait on and the
	// running total it writes.
	sizes []Part
	reqs  []*Request
	next  int
	total int64

	steps fwriteSteps
}

// fwriteSteps holds an fwrite's bound-method values.
type fwriteSteps struct {
	done                         sim.StepFunc
	wsGranted, wsReserve         sim.StepFunc
	waGathered                   func([]Part) sim.StepFunc
	waCollect, waWrite, waFinish sim.StepFunc
	waCollected                  func(Status) sim.StepFunc
	waWaited                     func([]Status) sim.StepFunc
}

// newWrite readies a pooled (or fresh) write state for a call by r.
func (f *File) newWrite(r *Rank, bytes int64, then sim.StepFunc) *fwrite {
	pl := r.rs.pool
	var s *fwrite
	if n := len(pl.fioFree); n > 0 {
		s = pl.fioFree[n-1]
		pl.fioFree = pl.fioFree[:n-1]
	} else {
		s = &fwrite{}
		s.steps = fwriteSteps{
			done:      s.doneStep,
			wsGranted: s.wsGrantedStep, wsReserve: s.wsReserveStep,
			waGathered: s.waGatheredStep, waCollect: s.waCollectStep, waCollected: s.waCollectedStep,
			waWrite: s.waWriteStep, waFinish: s.waFinishStep, waWaited: s.waWaitedStep,
		}
	}
	s.f, s.r, s.bytes, s.then = f, r, bytes, then
	return s
}

// doneStep ends either write: the demand interval closes, the state
// returns to the pool and the caller's continuation runs.
func (s *fwrite) doneStep(_ *sim.Fiber) sim.StepFunc {
	s.f.w.ioEnd(s.r.rs)
	then, pl := s.then, s.r.rs.pool
	clear(s.reqs)
	*s = fwrite{steps: s.steps, reqs: s.reqs[:0]}
	pl.fioFree = append(pl.fioFree, s)
	return then
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
	s := f.newWrite(r, bytes, r.ftrace("io", "write_shared", r.fib.Now(), then))
	// Demand spans the whole operation, including the queue for the
	// shared-pointer token: a rank serialized behind the pointer has
	// queued I/O the bank should count.
	f.w.ioBegin(r.rs)
	return f.token.FAcquire(r.fib, "shared file pointer", s.steps.wsGranted)
}

func (s *fwrite) wsGrantedStep(_ *sim.Fiber) sim.StepFunc {
	fs := &s.f.w.cfg.FS
	return s.r.fib.Advance(fs.SharedPointerLatency+fs.PerOpLatency, s.steps.wsReserve)
}

func (s *fwrite) wsReserveStep(_ *sim.Fiber) sim.StepFunc {
	f := s.f
	f.size += s.bytes
	f.bytesWritten += s.bytes
	f.ops++
	end := f.reserveEnd(s.r, f.w.cfg.FS.WriteTime(s.bytes))
	f.token.Release(s.r.fib)
	return s.r.fib.AdvanceTo(end, s.steps.done)
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
	s := f.newWrite(r, bytes, r.ftrace("io", "write_all", r.fib.Now(), then))
	// Every member is I/O-active for the duration of the collective: the
	// view exchange and the shipping to aggregators are part of the file
	// operation even for ranks that never touch a stripe.
	f.w.ioBegin(r.rs)
	// Phase 0: file-view recalculation. Every rank learns every size.
	return f.comm.FAllgatherv(r, Part{Bytes: 8, Data: bytes}, s.steps.waGathered)
}

// waGatheredStep is phase 1: ship data to aggregators (one per stripe, at
// most P). An aggregator posts a receive for every rank it aggregates.
func (s *fwrite) waGatheredStep(sizes []Part) sim.StepFunc {
	f, r := s.f, s.r
	c := f.comm
	me, p := c.RankOf(r), c.Size()
	na := min(f.w.cfg.FS.Stripes, p)
	agg := me * na / p
	aggRank := (agg*p + na - 1) / na
	tag := c.nextCollTag(me)
	if me != aggRank {
		s.reqs = append(s.reqs, c.isend(r, aggRank, tag, s.bytes, nil))
		return s.steps.waFinish
	}
	s.sizes = sizes
	for other := 0; other < p; other++ {
		if other == me {
			s.total += s.bytes
			continue
		}
		if other*na/p == agg {
			s.reqs = append(s.reqs, c.irecvFor(r, other, tag))
		}
	}
	return s.steps.waCollect
}

func (s *fwrite) waCollectStep(_ *sim.Fiber) sim.StepFunc {
	if s.next < len(s.reqs) {
		q := s.reqs[s.next]
		s.next++
		return s.f.comm.fwaitOn(s.r, s.r.fib, q, s.steps.waCollected)
	}
	// Every receive is consumed: the aggregator has no send to wait for.
	clear(s.reqs)
	s.reqs = s.reqs[:0]
	// Phase 2: one large write per aggregator. Interleaved per-rank
	// regions defeat stripe sequentiality (CollInterleaveFactor).
	return s.r.fib.Advance(s.f.w.cfg.FS.PerOpLatency, s.steps.waWrite)
}

func (s *fwrite) waCollectedStep(st Status) sim.StepFunc {
	sz, _ := s.sizes[st.Source].Data.(int64)
	s.total += sz
	return s.steps.waCollect
}

func (s *fwrite) waWriteStep(_ *sim.Fiber) sim.StepFunc {
	f := s.f
	end := f.reserveEnd(s.r, f.w.cfg.FS.CollWriteTime(s.total))
	f.ops++
	f.size += s.total
	f.bytesWritten += s.total
	return s.r.fib.AdvanceTo(end, s.steps.waFinish)
}

// waFinishStep waits for a non-aggregator's send and closes the
// collective with a barrier.
func (s *fwrite) waFinishStep(_ *sim.Fiber) sim.StepFunc {
	return s.f.comm.FWaitAll(s.r, s.reqs, s.steps.waWaited)
}

func (s *fwrite) waWaitedStep([]Status) sim.StepFunc {
	// The collective completes together.
	return s.f.comm.FBarrier(s.r, s.steps.done)
}
