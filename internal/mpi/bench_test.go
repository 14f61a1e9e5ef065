package mpi

import (
	"fmt"
	"testing"
)

// The benchmarks below build their world inside the timed region. Each
// runs one untimed round first, after which rank 0 resets the timer: by
// then every body has started, so ns/op and allocs/op count the operation,
// not the world's set-up spread over b.N.

// BenchmarkPingPong measures one blocking message round trip between two
// ranks, the runtime's end-to-end point-to-point cost.
func BenchmarkPingPong(b *testing.B) {
	w := NewWorld(Config{Procs: 2, Seed: 1})
	if _, err := w.Run(func(r *Rank) {
		c := r.World()
		for i := -1; i < b.N; i++ {
			if i == 0 && r.ID() == 0 {
				b.ResetTimer()
			}
			if r.ID() == 0 {
				c.Send(r, 1, 0, 64, nil)
				c.Recv(r, 1, 0)
			} else {
				c.Recv(r, 0, 0)
				c.Send(r, 0, 0, 64, nil)
			}
		}
	}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkBarrier measures dissemination barriers at several scales.
func BenchmarkBarrier(b *testing.B) {
	for _, p := range []int{16, 128, 1024} {
		p := p
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			w := NewWorld(Config{Procs: p, Seed: 1})
			if _, err := w.Run(func(r *Rank) {
				for i := -1; i < b.N; i++ {
					if i == 0 && r.ID() == 0 {
						b.ResetTimer()
					}
					r.World().Barrier(r)
				}
			}); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkAllreduce measures the recursive-doubling allreduce with real
// scalar payloads.
func BenchmarkAllreduce(b *testing.B) {
	w := NewWorld(Config{Procs: 64, Seed: 1})
	if _, err := w.Run(func(r *Rank) {
		for i := -1; i < b.N; i++ {
			if i == 0 && r.ID() == 0 {
				b.ResetTimer()
			}
			r.World().Allreduce(r, Part{Bytes: 8, Data: int64(1)}, SumInt64, nil)
		}
	}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFiberPingPong is BenchmarkPingPong with fiber rank bodies: the
// same blocking round trip with zero goroutine switches per message.
func BenchmarkFiberPingPong(b *testing.B) {
	w := NewWorld(Config{Procs: 2, Seed: 1})
	if _, err := w.RunFibers(func(r *Rank, f *simFiber) simStep {
		c := r.World()
		i := -1
		var loop simStep
		loop = func(_ *simFiber) simStep {
			if i == 0 && r.ID() == 0 {
				b.ResetTimer()
			}
			if i >= b.N {
				return nil
			}
			i++
			if r.ID() == 0 {
				return c.FSend(r, 1, 0, 64, nil, func(_ *simFiber) simStep {
					return c.FRecv(r, 1, 0, func(Status) simStep { return loop })
				})
			}
			return c.FRecv(r, 0, 0, func(Status) simStep {
				return c.FSend(r, 0, 0, 64, nil, loop)
			})
		}
		return loop
	}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFiberBarrier measures fiber dissemination barriers at several
// scales.
func BenchmarkFiberBarrier(b *testing.B) {
	for _, p := range []int{16, 128, 1024} {
		p := p
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			w := NewWorld(Config{Procs: p, Seed: 1})
			if _, err := w.RunFibers(func(r *Rank, f *simFiber) simStep {
				i := -1
				var loop simStep
				loop = func(_ *simFiber) simStep {
					if i == 0 && r.ID() == 0 {
						b.ResetTimer()
					}
					if i >= b.N {
						return nil
					}
					i++
					return r.World().FBarrier(r, loop)
				}
				return loop
			}); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkWaitAllAllocs guards the coalescing WaitAll fast path: with
// the rank-owned status scratch, waiting on a batch of already-complete
// requests must not allocate per call (the requests themselves are the
// only per-operation allocation on this path).
func BenchmarkWaitAllAllocs(b *testing.B) {
	w := NewWorld(Config{Procs: 2, Seed: 1})
	b.ReportAllocs()
	if _, err := w.Run(func(r *Rank) {
		c := r.World()
		reqs := make([]*Request, 4)
		for i := 0; i < b.N; i++ {
			if r.ID() == 0 {
				for j := range reqs {
					reqs[j] = c.Isend(r, 1, j, 64, nil)
				}
				c.WaitAll(r, reqs...)
			} else {
				for j := range reqs {
					reqs[j] = c.Irecv(r, 0, j)
				}
				c.WaitAll(r, reqs...)
			}
		}
	}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkMatchTable measures what a collective round asks of a rank's
// bucket table: a single-use collective tag is inserted, found and deleted
// again, beside a lookup of a reused application tag, with live other keys
// resident (a rank of the figure sweeps mostly holds 1-7 keys, one of the
// co-scheduling sweep 16-31).
func BenchmarkMatchTable(b *testing.B) {
	for _, live := range []int{4, 24} {
		b.Run(fmt.Sprintf("live=%d", live), func(b *testing.B) {
			var tab keyTable[recvFIFO]
			q := &recvFIFO{}
			for i := 0; i < live; i++ {
				tab.put(matchKey{comm: 1, src: i, tag: 7}, q)
			}
			hits := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := matchKey{comm: 1, src: i % live, tag: collTagBase + i}
				tab.put(k, q)
				if tab.get(k) != nil && tab.get(matchKey{comm: 1, src: (i + 1) % live, tag: 7}) != nil {
					hits++
				}
				tab.del(k)
			}
			if hits != b.N || tab.len() != live {
				b.Fatalf("%d of %d rounds found both keys; %d keys left, want %d", hits, b.N, tab.len(), live)
			}
		})
	}
}
