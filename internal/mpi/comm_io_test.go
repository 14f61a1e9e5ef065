package mpi

import (
	"testing"

	"repro/internal/sim"
)

func TestSplitByParity(t *testing.T) {
	w := testWorld(t, 8)
	sizes := make([]int, 8)
	ranks := make([]int, 8)
	mustRun(t, w, func(r *Rank) {
		sub := r.World().Split(r, r.ID()%2, r.ID())
		sizes[r.ID()] = sub.Size()
		ranks[r.ID()] = sub.RankOf(r)
	})
	for i := 0; i < 8; i++ {
		if sizes[i] != 4 {
			t.Fatalf("rank %d subcomm size = %d, want 4", i, sizes[i])
		}
		if want := i / 2; ranks[i] != want {
			t.Fatalf("rank %d subcomm rank = %d, want %d", i, ranks[i], want)
		}
	}
}

func TestSplitUndefinedColor(t *testing.T) {
	w := testWorld(t, 4)
	mustRun(t, w, func(r *Rank) {
		var sub *Comm
		if r.ID() == 3 {
			sub = r.World().Split(r, -1, 0)
			if sub != nil {
				t.Errorf("undefined color returned a communicator")
			}
		} else {
			sub = r.World().Split(r, 0, r.ID())
			if sub.Size() != 3 {
				t.Errorf("subcomm size = %d, want 3", sub.Size())
			}
		}
	})
}

func TestSplitKeyOrdersRanks(t *testing.T) {
	w := testWorld(t, 4)
	subRanks := make([]int, 4)
	mustRun(t, w, func(r *Rank) {
		// Reverse order keys: world rank 3 becomes sub rank 0.
		sub := r.World().Split(r, 0, -r.ID())
		subRanks[r.ID()] = sub.RankOf(r)
	})
	for i := 0; i < 4; i++ {
		if want := 3 - i; subRanks[i] != want {
			t.Fatalf("world rank %d got sub rank %d, want %d", i, subRanks[i], want)
		}
	}
}

func TestSplitCommsCommunicateIndependently(t *testing.T) {
	w := testWorld(t, 4)
	got := make([]int, 4)
	mustRun(t, w, func(r *Rank) {
		sub := r.World().Split(r, r.ID()%2, r.ID())
		// Within each subcomm: rank 0 sends to rank 1.
		if sub.RankOf(r) == 0 {
			sub.Send(r, 1, 0, 8, r.ID()*11)
		} else {
			st := sub.Recv(r, 0, 0)
			got[r.ID()] = st.Data.(int)
		}
	})
	if got[2] != 0 || got[3] != 11 {
		t.Fatalf("got = %v, want value 0 at rank 2 and 11 at rank 3", got)
	}
}

func TestWriteSharedSerializes(t *testing.T) {
	run := func(p int) sim.Time {
		w := NewWorld(Config{Procs: p, Seed: 1})
		var end sim.Time
		if _, err := w.Run(func(r *Rank) {
			f := r.World().Open(r, "out.dat")
			f.WriteShared(r, 1<<20)
			if r.Now() > end {
				end = r.Now()
			}
		}); err != nil {
			t.Fatal(err)
		}
		return end
	}
	t4, t32 := run(4), run(32)
	if t32 < 4*t4 {
		t.Fatalf("shared writes did not serialize: 32 procs %v vs 4 procs %v", t32, t4)
	}
}

func TestWriteAllFasterThanSharedAtScale(t *testing.T) {
	const p = 64
	const bytes = 1 << 20
	shared := func() sim.Time {
		w := NewWorld(Config{Procs: p, Seed: 1})
		var end sim.Time
		if _, err := w.Run(func(r *Rank) {
			f := r.World().Open(r, "s.dat")
			f.WriteShared(r, bytes)
			if r.Now() > end {
				end = r.Now()
			}
		}); err != nil {
			t.Fatal(err)
		}
		return end
	}()
	coll := func() sim.Time {
		w := NewWorld(Config{Procs: p, Seed: 1})
		var end sim.Time
		if _, err := w.Run(func(r *Rank) {
			f := r.World().Open(r, "c.dat")
			f.WriteAll(r, bytes)
			if r.Now() > end {
				end = r.Now()
			}
		}); err != nil {
			t.Fatal(err)
		}
		return end
	}()
	if coll >= shared {
		t.Fatalf("collective write (%v) not faster than shared write (%v) on %d procs", coll, shared, p)
	}
}

func TestWriteAllAccountsAllBytes(t *testing.T) {
	const p = 10
	w := NewWorld(Config{Procs: p, Seed: 1})
	var file *File
	if _, err := w.Run(func(r *Rank) {
		f := r.World().Open(r, "acc.dat")
		file = f
		f.WriteAll(r, int64(1000*(r.ID()+1)))
	}); err != nil {
		t.Fatal(err)
	}
	want := int64(1000 * p * (p + 1) / 2)
	if file.BytesWritten() != want {
		t.Fatalf("BytesWritten = %d, want %d", file.BytesWritten(), want)
	}
}

func TestWriteAtIndependent(t *testing.T) {
	w := NewWorld(Config{Procs: 4, Seed: 1})
	var file *File
	if _, err := w.Run(func(r *Rank) {
		f := r.World().Open(r, "ind.dat")
		file = f
		f.WriteAt(r, 500)
	}); err != nil {
		t.Fatal(err)
	}
	if file.Ops() != 4 || file.BytesWritten() != 2000 {
		t.Fatalf("ops=%d bytes=%d", file.Ops(), file.BytesWritten())
	}
}

func TestOpenReturnsSharedHandle(t *testing.T) {
	w := NewWorld(Config{Procs: 3, Seed: 1})
	handles := make([]*File, 3)
	if _, err := w.Run(func(r *Rank) {
		handles[r.ID()] = r.World().Open(r, "same.dat")
	}); err != nil {
		t.Fatal(err)
	}
	if handles[0] != handles[1] || handles[1] != handles[2] {
		t.Fatal("Open returned different handles for the same file")
	}
}

func TestBiggerWritesFewerOpsCheaper(t *testing.T) {
	// Writing the same volume in fewer, larger shared writes must be
	// cheaper — the buffering optimization the decoupled I/O group uses.
	run := func(writes int, each int64) sim.Time {
		w := NewWorld(Config{Procs: 8, Seed: 1})
		var end sim.Time
		if _, err := w.Run(func(r *Rank) {
			f := r.World().Open(r, "buf.dat")
			for i := 0; i < writes; i++ {
				f.WriteShared(r, each)
			}
			if r.Now() > end {
				end = r.Now()
			}
		}); err != nil {
			t.Fatal(err)
		}
		return end
	}
	many := run(64, 1<<16)
	few := run(1, 64<<16)
	if few >= many {
		t.Fatalf("1 big write (%v) not cheaper than 64 small writes (%v)", few, many)
	}
}
