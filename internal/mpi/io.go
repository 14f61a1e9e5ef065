package mpi

import "repro/internal/sim"

// File models a shared file on the striped parallel file system. All
// write paths consume virtual time on the world's shared stripe bank, so
// concurrent jobs of I/O contend with each other as on a real machine.
//
// Three write paths mirror the paper's Section IV-D2:
//
//   - WriteAt: independent write at an explicit offset.
//   - WriteShared: shared-file-pointer write (MPI_File_write_shared);
//     pointer updates serialize on a global token.
//   - WriteAll: collective two-phase write (MPI_File_write_all); sizes are
//     allgathered (the per-iteration file-view recalculation), data is
//     shipped to aggregator ranks, and aggregators issue large writes.
type File struct {
	w     *World
	comm  *Comm
	name  string
	token sim.Token
	size  int64

	ops          int64
	bytesWritten int64
}

// openState tracks a collective Open rendezvous (unused fields reserved
// for multi-communicator opens).
type openState struct {
	file *File
}

// Open opens (creating if needed) the named shared file, collectively over
// c. Every member must call it.
func (c *Comm) Open(r *Rank, name string) *File {
	return Await(r, "Open", func(then func(*File) sim.StepFunc) sim.StepFunc { return c.FOpen(r, name, then) })
}

// Ops reports the number of write operations issued.
func (f *File) Ops() int64 { return f.ops }

// BytesWritten reports the total bytes written.
func (f *File) BytesWritten() int64 { return f.bytesWritten }

// WriteAt writes bytes at an explicit offset: a per-operation latency,
// then occupancy of one stripe.
func (f *File) WriteAt(r *Rank, bytes int64) {
	if bytes < 0 {
		panic("mpi: negative I/O size")
	}
	if f.w.revoked {
		panic(f.w.failure)
	}
	fs := f.w.cfg.FS
	start := r.Now()
	r.Block("WriteAt", func(next sim.StepFunc) sim.StepFunc {
		f.w.ioBegin(r.rs)
		return r.fib.Advance(fs.PerOpLatency, func(*sim.Fiber) sim.StepFunc {
			return r.fib.AdvanceTo(f.reserveEnd(r, fs.WriteTime(bytes)), next)
		})
	})
	f.w.ioEnd(r.rs)
	f.ops++
	f.size += bytes
	f.bytesWritten += bytes
	r.trace("io", "write", start)
}

// WriteShared appends bytes through the shared file pointer. The pointer
// update serializes globally on the file's token (the consistency
// semantics the MPI library must maintain), then the data occupies a
// stripe. At large process counts the token hand-off dominates — the
// paper's reason MPI_File_write_shared scales worst.
func (f *File) WriteShared(r *Rank, bytes int64) {
	r.Block("WriteShared", func(next sim.StepFunc) sim.StepFunc { return f.FWriteShared(r, bytes, next) })
}

// WriteAll performs a collective two-phase write: every member of the
// file's communicator contributes bytes. Sizes are allgathered to compute
// the file view, data moves to aggregator ranks over the network, and the
// aggregators issue one large write each.
func (f *File) WriteAll(r *Rank, bytes int64) {
	r.Block("WriteAll", func(next sim.StepFunc) sim.StepFunc { return f.FWriteAll(r, bytes, next) })
}
