package mpi

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/netmodel"
	"repro/internal/sim"
)

func testWorld(t *testing.T, procs int) *World {
	t.Helper()
	return NewWorld(Config{Procs: procs, Seed: 42})
}

func mustRun(t *testing.T, w *World, main func(r *Rank)) sim.Time {
	t.Helper()
	end, err := w.Run(main)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return end
}

// Only this package's tests call the blocking Wait and WaitAll.

// Wait blocks until req completes and returns its status. Completed
// receives additionally charge the configured receive overhead to the
// calling process.
func (c *Comm) Wait(r *Rank, req *Request) Status {
	return Await(r, "Wait", func(then func(Status) sim.StepFunc) sim.StepFunc { return c.FWait(r, req, then) })
}

// WaitAll waits for every request in order. Requests that are already
// complete when reached are settled without suspending, and their
// receive overheads accumulate as CPU debt (the way AddDebt coalesces
// send overhead) — one clock advance at the end instead of one per
// request. The virtual-time outcome is identical to waiting on each
// request in sequence.
//
// The returned slice is scratch storage owned by the rank and is reused
// by that rank's next WaitAll call; callers that need the statuses longer
// must copy them out.
func (c *Comm) WaitAll(r *Rank, reqs ...*Request) []Status {
	return Await(r, "WaitAll", func(then func([]Status) sim.StepFunc) sim.StepFunc { return c.FWaitAll(r, reqs, then) })
}

func TestSendRecvDeliversPayload(t *testing.T) {
	w := testWorld(t, 2)
	var got string
	mustRun(t, w, func(r *Rank) {
		c := r.World()
		if r.ID() == 0 {
			c.Send(r, 1, 7, 128, "hello")
		} else {
			st := c.Recv(r, 0, 7)
			got = st.Data.(string)
			if st.Source != 0 || st.Tag != 7 || st.Bytes != 128 {
				t.Errorf("status = %+v", st)
			}
		}
	})
	if got != "hello" {
		t.Fatalf("payload = %q", got)
	}
}

func TestMessageCostMatchesModel(t *testing.T) {
	cfg := Config{Procs: 2, Seed: 1}
	w := NewWorld(cfg)
	var recvAt sim.Time
	mustRun(t, w, func(r *Rank) {
		c := r.World()
		if r.ID() == 0 {
			c.Send(r, 1, 0, 1000, nil)
		} else {
			c.Recv(r, 0, 0)
			recvAt = r.Now()
		}
	})
	// Expected: send overhead + sender NIC + latency + receiver NIC +
	// receive overhead.
	want := fabric.SendOverhead + 2*fabric.SerializationTime(1000) + fabric.Latency + fabric.RecvOverhead
	if recvAt != want {
		t.Fatalf("recv completed at %v, want %v", recvAt, want)
	}
}

func TestRecvBeforeSendBlocks(t *testing.T) {
	w := testWorld(t, 2)
	var recvAt sim.Time
	mustRun(t, w, func(r *Rank) {
		c := r.World()
		if r.ID() == 0 {
			r.Idle(1 * sim.Millisecond)
			c.Send(r, 1, 0, 8, nil)
		} else {
			c.Recv(r, 0, 0)
			recvAt = r.Now()
		}
	})
	if recvAt < sim.Millisecond {
		t.Fatalf("receiver completed at %v, before the send at 1ms", recvAt)
	}
}

func TestNonOvertakingSameSourceAndTag(t *testing.T) {
	w := testWorld(t, 2)
	var order []int
	mustRun(t, w, func(r *Rank) {
		c := r.World()
		if r.ID() == 0 {
			for i := 0; i < 5; i++ {
				c.Send(r, 1, 3, 64, i)
			}
		} else {
			for i := 0; i < 5; i++ {
				st := c.Recv(r, 0, 3)
				order = append(order, st.Data.(int))
			}
		}
	})
	for i, v := range order {
		if v != i {
			t.Fatalf("messages overtook: %v", order)
		}
	}
}

func TestTagSelectivity(t *testing.T) {
	w := testWorld(t, 2)
	mustRun(t, w, func(r *Rank) {
		c := r.World()
		if r.ID() == 0 {
			c.Send(r, 1, 1, 8, "one")
			c.Send(r, 1, 2, 8, "two")
		} else {
			// Receive tag 2 first even though tag 1 arrives first.
			st2 := c.Recv(r, 0, 2)
			st1 := c.Recv(r, 0, 1)
			if st2.Data.(string) != "two" || st1.Data.(string) != "one" {
				t.Errorf("tag matching broken: %v %v", st1.Data, st2.Data)
			}
		}
	})
}

func TestAnySourceAndAnyTag(t *testing.T) {
	w := testWorld(t, 3)
	var got []string
	mustRun(t, w, func(r *Rank) {
		c := r.World()
		switch r.ID() {
		case 0:
			c.Send(r, 2, 5, 8, "from0")
		case 1:
			r.Idle(sim.Millisecond)
			c.Send(r, 2, 9, 8, "from1")
		case 2:
			for i := 0; i < 2; i++ {
				st := c.Recv(r, AnySource, AnyTag)
				got = append(got, st.Data.(string))
			}
		}
	})
	if len(got) != 2 || got[0] != "from0" || got[1] != "from1" {
		t.Fatalf("got %v", got)
	}
}

func TestIsendIrecvWaitAll(t *testing.T) {
	w := testWorld(t, 2)
	mustRun(t, w, func(r *Rank) {
		c := r.World()
		if r.ID() == 0 {
			reqs := []*Request{
				c.Isend(r, 1, 0, 8, 10),
				c.Isend(r, 1, 1, 8, 20),
			}
			// A send reports what it sent.
			if sts := c.WaitAll(r, reqs...); sts[1] != (Status{Source: 0, Tag: 1, Bytes: 8, Data: 20}) {
				t.Errorf("send status %+v", sts[1])
			}
		} else {
			a := c.Irecv(r, 0, 0)
			b := c.Irecv(r, 0, 1)
			sts := c.WaitAll(r, a, b)
			if sts[0].Data.(int) != 10 || sts[1].Data.(int) != 20 {
				t.Errorf("payloads %v %v", sts[0].Data, sts[1].Data)
			}
		}
	})
}

func TestWaitAnyReturnsFirstAvailable(t *testing.T) {
	w := testWorld(t, 3)
	var first int
	mustRun(t, w, func(r *Rank) {
		c := r.World()
		switch r.ID() {
		case 0:
			r.Idle(10 * sim.Millisecond) // deliberately slow
			c.Send(r, 2, 0, 8, nil)
		case 1:
			c.Send(r, 2, 1, 8, nil) // fast
		case 2:
			reqs := []*Request{c.Irecv(r, 0, 0), c.Irecv(r, 1, 1)}
			idx, _ := c.WaitAny(r, reqs)
			first = idx
			// Drain the other.
			c.Wait(r, reqs[1-idx])
		}
	})
	if first != 1 {
		t.Fatalf("WaitAny returned %d, want the fast sender 1", first)
	}
}

func TestTestReturnsFalseThenTrue(t *testing.T) {
	w := testWorld(t, 2)
	mustRun(t, w, func(r *Rank) {
		c := r.World()
		if r.ID() == 0 {
			r.Idle(sim.Millisecond)
			c.Send(r, 1, 0, 8, nil)
		} else {
			req := c.Irecv(r, 0, 0)
			if ok, _ := c.Test(r, req); ok {
				t.Error("Test true before message sent")
			}
			r.Idle(10 * sim.Millisecond)
			if ok, _ := c.Test(r, req); !ok {
				t.Error("Test false after message should have arrived")
			}
		}
	})
}

func TestSelfSend(t *testing.T) {
	w := testWorld(t, 1)
	mustRun(t, w, func(r *Rank) {
		c := r.World()
		req := c.Isend(r, 0, 0, 8, "self")
		st := c.Recv(r, 0, 0)
		if sst := c.Wait(r, req); sst != (Status{Source: 0, Tag: 0, Bytes: 8, Data: "self"}) {
			t.Errorf("self-send status %+v", sst)
		}
		if st.Data.(string) != "self" {
			t.Errorf("self-send payload %v", st.Data)
		}
	})
}

func TestSendLinkSerializesBackToBackMessages(t *testing.T) {
	// Two large messages from the same sender must serialize on its NIC;
	// two large messages from different senders to different receivers
	// must not.
	cfg := Config{Procs: 4, Seed: 1}
	const bytes = 10_000_000 // 1ms at 10 GB/s
	w := NewWorld(cfg)
	var sameEnd sim.Time
	mustRun(t, w, func(r *Rank) {
		c := r.World()
		switch r.ID() {
		case 0:
			c.Isend(r, 1, 0, bytes, nil)
			c.Isend(r, 1, 1, bytes, nil)
		case 1:
			c.Recv(r, 0, 0)
			c.Recv(r, 0, 1)
			sameEnd = r.Now()
		}
	})
	w2 := NewWorld(cfg)
	var crossEnd sim.Time
	mustRun(t, w2, func(r *Rank) {
		c := r.World()
		switch r.ID() {
		case 0:
			c.Isend(r, 1, 0, bytes, nil)
		case 2:
			c.Isend(r, 3, 0, bytes, nil)
		case 1:
			c.Recv(r, 0, 0)
			crossEnd = r.Now()
		case 3:
			c.Recv(r, 2, 0)
			if e := r.Now(); e > crossEnd {
				crossEnd = e
			}
		}
	})
	if sameEnd < crossEnd+sim.Time(float64(sim.Millisecond)*0.8) {
		t.Fatalf("same-sender pair (%v) should be ~1ms slower than disjoint pairs (%v)", sameEnd, crossEnd)
	}
}

func TestHotReceiverCongestion(t *testing.T) {
	// Many senders to one receiver serialize on the receiver NIC: total
	// time grows linearly with sender count.
	run := func(senders int) sim.Time {
		w := NewWorld(Config{Procs: senders + 1, Seed: 1})
		const bytes = 1_000_000 // 100us at 10 GB/s
		end := sim.Time(0)
		mustRun(t, w, func(r *Rank) {
			c := r.World()
			if r.ID() == 0 {
				for i := 0; i < senders; i++ {
					c.Recv(r, AnySource, 0)
				}
				end = r.Now()
			} else {
				c.Send(r, 0, 0, bytes, nil)
			}
		})
		return end
	}
	t4, t16 := run(4), run(16)
	if t16 < 3*t4 {
		t.Fatalf("16 senders (%v) not ~4x slower than 4 senders (%v)", t16, t4)
	}
}

func TestNoiseSlowsComputeDeterministically(t *testing.T) {
	cfg := Config{Procs: 4, Seed: 5, Noise: netmodel.DefaultNoise()}
	run := func() []sim.Time {
		w := NewWorld(cfg)
		times := make([]sim.Time, 4)
		mustRun(t, w, func(r *Rank) {
			r.Compute(10 * sim.Millisecond)
			times[r.ID()] = r.Now()
		})
		return times
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic noise: %v vs %v", a, b)
		}
		if a[i] < 10*sim.Millisecond {
			t.Fatalf("noise sped rank %d up: %v", i, a[i])
		}
	}
	distinct := map[sim.Time]bool{}
	for _, v := range a {
		distinct[v] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("noise produced identical times across ranks: %v", a)
	}
}

func TestTrafficCounters(t *testing.T) {
	w := testWorld(t, 2)
	mustRun(t, w, func(r *Rank) {
		c := r.World()
		if r.ID() == 0 {
			c.Send(r, 1, 0, 100, nil)
			c.Send(r, 1, 0, 200, nil)
		} else {
			c.Recv(r, 0, 0)
			c.Recv(r, 0, 0)
		}
	})
	if w.MessagesSent() != 2 {
		t.Fatalf("msgs=%d", w.MessagesSent())
	}
}

func TestDeadlockDetectedAcrossRanks(t *testing.T) {
	w := testWorld(t, 2)
	_, err := w.Run(func(r *Rank) {
		// Both ranks receive; nobody sends.
		r.World().Recv(r, 1-r.ID(), 0)
	})
	if err == nil {
		t.Fatal("mutual recv did not deadlock")
	}
}

func TestBadArgumentsPanic(t *testing.T) {
	w := testWorld(t, 2)
	mustRun(t, w, func(r *Rank) {
		if r.ID() != 0 {
			return
		}
		c := r.World()
		for _, fn := range []func(){
			func() { c.Isend(r, 5, 0, 8, nil) },
			func() { c.Isend(r, 2, 0, 8, nil) },
			func() { c.Isend(r, 1, 0, -1, nil) },
			func() { c.IsendAndFree(r, 5, 0, 8, nil) },
			func() { c.IsendAndFree(r, 1, 0, -1, nil) },
			func() { c.Irecv(r, 17, 0) },
			func() { c.Irecv(r, 2, 0) },
			func() { c.Recv(r, 1, collTagBase) },
			func() { c.WaitAny(r, nil) },
		} {
			func() {
				defer func() {
					// The argument check panics, not the code it guards.
					if rec := fmt.Sprint(recover()); !strings.HasPrefix(rec, "mpi: ") {
						t.Errorf("bad argument panicked with %q, want the mpi package's check", rec)
					}
				}()
				fn()
			}()
		}
	})
}

// TestIsendAndFreeBuildsNoRequest: a fire-and-forget send injects the
// message and nothing else. With the message pool and the event queue warm
// from an earlier burst of the same size, a burst allocates nothing and
// takes no request from the pool (its freelist, emptied for the burst,
// stays empty). On a revoked world the call returns at once: no send
// counted, no overhead charged, no event scheduled.
func TestIsendAndFreeBuildsNoRequest(t *testing.T) {
	const burst, runs = 64, 3
	const total = burst * (runs + 1) // AllocsPerRun calls once more to warm up
	w := testWorld(t, 2)
	var allocs float64
	freed := -1
	got := 0
	_, err := w.RunFibers(func(r *Rank, f *sim.Fiber) sim.StepFunc {
		c := r.World()
		if r.ID() == 1 {
			var loop sim.StepFunc
			loop = func(*sim.Fiber) sim.StepFunc {
				if got == 2*total {
					return nil
				}
				return c.FRecv(r, 0, 5, func(Status) sim.StepFunc {
					got++
					return loop
				})
			}
			return loop(f)
		}
		send := func(n int) {
			for range n {
				c.IsendAndFree(r, 1, 5, 8, nil)
			}
		}
		send(total)
		return r.FCompute(sim.Millisecond, func(*sim.Fiber) sim.StepFunc {
			pl := r.rs.pool
			saved := pl.reqFree
			pl.reqFree = nil
			if raceEnabled {
				send(total)
			} else {
				allocs = testing.AllocsPerRun(runs, func() { send(burst) })
			}
			freed = len(pl.reqFree)
			pl.reqFree = saved

			sent, debt, pushes := r.rs.msgsSent, f.Debt(), r.rs.eng.QueueStats().Pushes
			w.revoked = true
			c.IsendAndFree(r, 1, 5, 8, nil)
			w.revoked = false
			if r.rs.msgsSent != sent || f.Debt() != debt || r.rs.eng.QueueStats().Pushes != pushes {
				t.Errorf("IsendAndFree on a revoked world: sends %d -> %d, debt %v -> %v, pushes %d -> %d",
					sent, r.rs.msgsSent, debt, f.Debt(), pushes, r.rs.eng.QueueStats().Pushes)
			}
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 2*total {
		t.Errorf("rank 1 received %d messages, want %d", got, 2*total)
	}
	if allocs != 0 {
		t.Errorf("a burst of %d IsendAndFree allocated %v times", burst, allocs)
	}
	if freed != 0 {
		t.Errorf("a burst of IsendAndFree left %d requests in an emptied freelist", freed)
	}
}
