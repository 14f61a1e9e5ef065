package mpi

import (
	"fmt"

	"repro/internal/sim"
)

// simTimeT aliases sim.Time for the conversion helper.
type simTimeT = sim.Time

// PersistentRequest is a reusable communication request, like
// MPI_Send_init / MPI_Recv_init. The paper's MPIStream library is built on
// persistent communication (Section III-A); the stream package uses these
// for its element channels when batching is disabled.
//
// A persistent request is created once, then cycled through
// Start -> Wait -> Start -> ... The setup cost (argument validation,
// matching-entry construction) is paid once at init time instead of per
// message, which the runtime models by charging a reduced per-start
// overhead.
type PersistentRequest struct {
	comm   *Comm
	isRecv bool
	// send parameters
	dst, tag int
	bytes    int64
	// recv parameters
	src int
	// active is the in-flight request of the current cycle, nil between
	// Wait and Start.
	active *Request
	starts int64
}

// persistentStartOverheadFraction is the share of the full send overhead
// paid per Start (the rest was paid at init).
const persistentStartOverheadFraction = 0.5

// SendInit creates a persistent send request to dst with a fixed tag and
// message size. The payload may vary per Start.
func (c *Comm) SendInit(r *Rank, dst, tag int, bytes int64) *PersistentRequest {
	if dst < 0 || dst >= len(c.members) {
		panic(fmt.Sprintf("mpi: SendInit to rank %d of %d", dst, len(c.members)))
	}
	if bytes < 0 {
		panic("mpi: negative message size")
	}
	// Init pays one full send overhead for the descriptor setup.
	r.AddDebt(c.w.cfg.Net.SendOverhead)
	return &PersistentRequest{comm: c, dst: dst, tag: tag, bytes: bytes}
}

// RecvInit creates a persistent receive request from src (or AnySource)
// with the given tag.
func (c *Comm) RecvInit(r *Rank, src, tag int) *PersistentRequest {
	if src != AnySource && (src < 0 || src >= len(c.members)) {
		panic(fmt.Sprintf("mpi: RecvInit from rank %d of %d", src, len(c.members)))
	}
	r.AddDebt(c.w.cfg.Net.RecvOverhead)
	return &PersistentRequest{comm: c, isRecv: true, src: src, tag: tag}
}

// Start activates the request for one communication cycle. Starting an
// already-active request is a programming error.
func (p *PersistentRequest) Start(r *Rank, data interface{}) {
	if p.active != nil {
		panic("mpi: Start on an active persistent request")
	}
	p.starts++
	if p.isRecv {
		p.active = p.comm.irecvFor(r, p.src, p.tag)
		return
	}
	// Persistent sends pay a reduced per-start overhead: the descriptor
	// work was done at init.
	net := r.w.cfg.Net
	overhead := simTime(float64(net.SendOverhead) * persistentStartOverheadFraction)
	p.active = p.comm.isendOv(r, r.fib, p.dst, p.tag, p.bytes, data, overhead)
}

// Wait blocks until the active cycle completes and deactivates the
// request, returning the cycle's status.
func (p *PersistentRequest) Wait(r *Rank) Status {
	if p.active == nil {
		panic("mpi: Wait on an inactive persistent request")
	}
	st := p.comm.Wait(r, p.active)
	p.active = nil
	return st
}

// Test reports whether the active cycle has completed; on completion the
// request deactivates.
func (p *PersistentRequest) Test(r *Rank) (bool, Status) {
	if p.active == nil {
		panic("mpi: Test on an inactive persistent request")
	}
	ok, st := p.comm.Test(r, p.active)
	if ok {
		p.active = nil
	}
	return ok, st
}

// Starts reports how many cycles the request has run.
func (p *PersistentRequest) Starts() int64 { return p.starts }

// Active reports whether a cycle is in flight.
func (p *PersistentRequest) Active() bool { return p.active != nil }

// simTime converts a float nanosecond count to the simulator time type.
func simTime(f float64) (t simTimeT) { return simTimeT(f) }
