package mpi

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestNonOvertakingPerSourceAndTag: messages between one (source, tag)
// pair must be received in send order, whatever mix of tags is in flight
// and whether the receives are posted before or after arrival.
func TestNonOvertakingPerSourceAndTag(t *testing.T) {
	cases := []struct {
		name      string
		preload   bool // let all messages arrive before the first receive
		sendTags  []int
		recvTag   int
		wantOrder []int64 // payload order among messages with recvTag
	}{
		{"same-tag-posted-late", true, []int{5, 5, 5, 5}, 5, []int64{0, 1, 2, 3}},
		{"interleaved-tags", true, []int{5, 9, 5, 9, 5}, 5, []int64{0, 2, 4}},
		{"other-tag-first", true, []int{9, 5, 5}, 5, []int64{1, 2}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			w := testWorld(t, 2)
			var got []int64
			mustRun(t, w, func(r *Rank) {
				c := r.World()
				if r.ID() == 0 {
					for i, tag := range tc.sendTags {
						c.Send(r, 1, tag, 64, int64(i))
					}
					return
				}
				if tc.preload {
					r.Idle(1e9) // all sends arrive before any receive posts
				}
				for range tc.wantOrder {
					st := c.Recv(r, 0, tc.recvTag)
					got = append(got, st.Data.(int64))
				}
				// Drain the rest so the run ends cleanly.
				for i, tag := range tc.sendTags {
					if tag != tc.recvTag {
						_ = i
						c.Recv(r, 0, tag)
					}
				}
			})
			if len(got) != len(tc.wantOrder) {
				t.Fatalf("received %v, want %v", got, tc.wantOrder)
			}
			for i := range got {
				if got[i] != tc.wantOrder[i] {
					t.Fatalf("order %v, want %v (non-overtaking violated)", got, tc.wantOrder)
				}
			}
		})
	}
}

// TestWildcardFIFOFairness: AnySource and AnyTag receives must match the
// earliest-arrived message among all that qualify, in arrival order, even
// when concrete-keyed traffic interleaves.
func TestWildcardFIFOFairness(t *testing.T) {
	cases := []struct {
		name     string
		src, tag int // receive selector on rank 2 (AnySource/AnyTag ok)
		want     []string
	}{
		// Rank 0 sends "a0"(tag 1), "a1"(tag 2); rank 1 sends "b0"(tag 1),
		// "b1"(tag 2); arrival order a0, b0, a1, b1 (staggered below).
		{"any-source-tag1", AnySource, 1, []string{"a0", "b0"}},
		{"any-source-tag2", AnySource, 2, []string{"a1", "b1"}},
		{"src0-any-tag", 0, AnyTag, []string{"a0", "a1"}},
		{"src1-any-tag", 1, AnyTag, []string{"b0", "b1"}},
		{"any-any", AnySource, AnyTag, []string{"a0", "b0", "a1", "b1"}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			w := testWorld(t, 3)
			var got []string
			mustRun(t, w, func(r *Rank) {
				c := r.World()
				switch r.ID() {
				case 0:
					c.Send(r, 2, 1, 64, "a0")
					r.Idle(2e6)
					c.Send(r, 2, 2, 64, "a1")
				case 1:
					r.Idle(1e6)
					c.Send(r, 2, 1, 64, "b0")
					r.Idle(2e6)
					c.Send(r, 2, 2, 64, "b1")
				case 2:
					r.Idle(1e9) // everything arrives first
					for range tc.want {
						st := c.Recv(r, tc.src, tc.tag)
						got = append(got, st.Data.(string))
					}
					// Drain whatever the selector did not cover.
					for len(got) < 4 {
						st := c.Recv(r, AnySource, AnyTag)
						got = append(got, st.Data.(string))
					}
				}
			})
			for i, want := range tc.want {
				if got[i] != want {
					t.Fatalf("selector (%d,%d) received %v, want prefix %v", tc.src, tc.tag, got, tc.want)
				}
			}
		})
	}
}

// TestWildcardVsConcretePostingOrder: an arriving message must match the
// earliest-posted receive that accepts it, across wildcard and concrete
// selectors.
func TestWildcardVsConcretePostingOrder(t *testing.T) {
	for _, wildcardFirst := range []bool{true, false} {
		wildcardFirst := wildcardFirst
		t.Run(fmt.Sprintf("wildcardFirst=%v", wildcardFirst), func(t *testing.T) {
			w := testWorld(t, 2)
			mustRun(t, w, func(r *Rank) {
				c := r.World()
				if r.ID() == 0 {
					r.Idle(1e6)
					c.Send(r, 1, 7, 64, "only")
					return
				}
				var first, second *Request
				if wildcardFirst {
					first = c.Irecv(r, AnySource, AnyTag)
					second = c.Irecv(r, 0, 7)
				} else {
					first = c.Irecv(r, 0, 7)
					second = c.Irecv(r, AnySource, AnyTag)
				}
				st := c.Wait(r, first)
				if st.Data.(string) != "only" {
					t.Errorf("first-posted receive did not win: %+v", st)
				}
				if ok, _ := c.Test(r, second); ok {
					t.Error("second-posted receive completed without a message")
				}
				_ = second
			})
		})
	}
}

// TestPostedCacheServesOnlyItsKey: the match table caches the bucket of the
// last posted receive. A message for an earlier-posted key must look its
// own bucket up rather than take the cached one.
func TestPostedCacheServesOnlyItsKey(t *testing.T) {
	w := testWorld(t, 3)
	mustRun(t, w, func(r *Rank) {
		c := r.World()
		switch r.ID() {
		case 0:
			from1 := c.Irecv(r, 1, 5)
			from2 := c.Irecv(r, 2, 5) // the cached key
			if st := c.Wait(r, from1); st.Source != 1 {
				t.Errorf("Irecv(1, 5) completed with source %d", st.Source)
			}
			if st := c.Wait(r, from2); st.Source != 2 {
				t.Errorf("Irecv(2, 5) completed with source %d", st.Source)
			}
		case 1:
			c.Send(r, 0, 5, 64, nil)
		case 2:
			r.Idle(1e6) // arrive after rank 1's message
			c.Send(r, 0, 5, 64, nil)
		}
	})
}

// TestSideListCompactionKeepsLiveMessages: a wildcard side list keeps the
// entries that concrete receives consumed behind its live head, and drops
// them once they dominate it. The compaction that runs when the next
// message enters the list must keep the live head and the newcomer.
func TestSideListCompactionKeepsLiveMessages(t *testing.T) {
	const consumed = 80
	w := testWorld(t, 2)
	mustRun(t, w, func(r *Rank) {
		c := r.World()
		if r.ID() == 1 {
			c.Send(r, 0, 3, 8, nil) // read first, through (1, AnyTag)
			c.Send(r, 0, 1, 8, nil) // the live head of that side list
			for i := 0; i < consumed; i++ {
				c.Send(r, 0, 2, 8, nil)
			}
			r.Idle(1500e3)
			c.Send(r, 0, 2, 8, nil) // enters the side list and compacts it
			return
		}
		r.Idle(1e6) // everything but the last message has arrived
		if st := c.Recv(r, 1, AnyTag); st.Tag != 3 {
			t.Fatalf("first wildcard receive got tag %d, want 3", st.Tag)
		}
		for i := 0; i < consumed; i++ {
			c.Recv(r, 1, 2)
		}
		r.Idle(2e6) // the last message arrives meanwhile
		if st := c.Recv(r, 1, AnyTag); st.Tag != 1 {
			t.Errorf("wildcard receive after the compaction got tag %d, want 1", st.Tag)
		}
		c.Recv(r, 1, 2)
	})
}

// TestQueuedReceiveTakesEarliestArrival: a receive posted over the queue
// takes the earliest-arrived message it accepts, even when a later
// self-send is ready first. The 100 MiB message is on rank 0's NIC from
// about 10.5 ms to about 21 ms; the self-send lands at 15 ms, between its
// arrival and its readiness. The receive completes at the network
// message's readiness, and the next one takes the self-send at once.
func TestQueuedReceiveTakesEarliestArrival(t *testing.T) {
	const big = 100 << 20
	ser := fabric.SerializationTime(big)
	w := testWorld(t, 2)
	mustRun(t, w, func(r *Rank) {
		c := r.World()
		if r.ID() == 1 {
			c.Isend(r, 0, 3, big, "big")
			return
		}
		r.Idle(15 * sim.Millisecond)
		c.Isend(r, 0, 3, 8, "self")
		r.Idle(sim.Microsecond) // the self-send is delivered and ready
		if got := c.Recv(r, AnySource, 3); got.Data != "big" {
			t.Fatalf("first Recv = %+v, want the earlier-arrived network message", got)
		}
		ready := fabric.SendOverhead + 2*ser + fabric.Latency
		if want := ready + fabric.RecvOverhead; r.Now() != want {
			t.Errorf("first Recv returned at %v, want the network message's readiness plus the receive overhead, %v", r.Now(), want)
		}
		before := r.Now()
		if got := c.Recv(r, AnySource, 3); got.Data != "self" {
			t.Fatalf("second Recv = %+v, want the self-send", got)
		}
		if r.Now() != before+fabric.RecvOverhead {
			t.Errorf("second Recv took %v, want only the receive overhead %v", r.Now()-before, fabric.RecvOverhead)
		}
	})
}

// TestTestThenWaitChargesOverheadOnce: a successful Test charges the
// receive overhead; a following Wait on the same request must not charge
// it again (regression test for the old isRecv-mutation hack).
func TestTestThenWaitChargesOverheadOnce(t *testing.T) {
	cfg := Config{Procs: 2, Seed: 1}
	w := NewWorld(cfg)
	ov := fabric.RecvOverhead
	mustRun(t, w, func(r *Rank) {
		c := r.World()
		if r.ID() == 0 {
			c.Send(r, 1, 2, 64, nil)
			return
		}
		r.Idle(1e9)
		req := c.Irecv(r, 0, 2)
		before := r.Now()
		ok, _ := c.Test(r, req)
		if !ok {
			t.Fatal("Test found the queued message incomplete")
		}
		afterTest := r.Now()
		if afterTest-before != ov {
			t.Fatalf("Test charged %v, want RecvOverhead %v", afterTest-before, ov)
		}
		if !req.isRecv {
			t.Fatal("Test mutated isRecv")
		}
		// Wait consumes (recycles) the request; it must not be inspected
		// afterwards.
		c.Wait(r, req)
		if r.Now() != afterTest {
			t.Fatalf("Wait after Test charged %v more (double charge)", r.Now()-afterTest)
		}
	})
}

// TestAnyTagSkipsCollectiveTraffic: an application AnyTag receive must not
// take one of a collective's round messages (MPI keeps collectives in a
// context of their own), whether it is posted before the collective's
// message arrives or finds it queued. It takes the application message
// sent after the collective. Both ranks used to deadlock.
func TestAnyTagSkipsCollectiveTraffic(t *testing.T) {
	for _, queued := range []bool{false, true} {
		t.Run(fmt.Sprintf("queued=%v", queued), func(t *testing.T) {
			w := testWorld(t, 2)
			mustRun(t, w, func(r *Rank) {
				c := r.World()
				var req *Request
				if r.ID() == 0 {
					if queued {
						r.Idle(1e6) // rank 1's round message arrives first
					}
					req = c.Irecv(r, AnySource, AnyTag)
				}
				if got := c.Allreduce(r, Part{Bytes: 8, Data: int64(r.ID() + 1)}, SumInt64, nil); got.Data.(int64) != 3 {
					t.Errorf("rank %d: allreduce = %v, want 3", r.ID(), got.Data)
				}
				if r.ID() == 1 {
					c.Send(r, 0, 5, 64, "app")
					return
				}
				if st := c.Wait(r, req); st.Tag != 5 || st.Data != "app" {
					t.Errorf("wildcard receive got %+v, want the application message", st)
				}
			})
		})
	}
}

// TestCollectiveTagRefused: the public point-to-point calls refuse a tag in
// the collectives' range, from its first tag on, with a panic naming the
// call, the tag and the range.
func TestCollectiveTagRefused(t *testing.T) {
	for _, tag := range []int{collTagBase, collTagBase + 3} {
		for name, call := range map[string]func(c *Comm, r *Rank){
			"Isend":        func(c *Comm, r *Rank) { c.Isend(r, 1, tag, 8, nil) },
			"IsendAndFree": func(c *Comm, r *Rank) { c.IsendAndFree(r, 1, tag, 8, nil) },
			"Irecv":        func(c *Comm, r *Rank) { c.Irecv(r, 1, tag) },
		} {
			collectiveTagRefused(t, name, tag, call)
		}
	}
}

// collectiveTagRefused runs call on rank 0 of a fresh world and checks its
// panic.
func collectiveTagRefused(t *testing.T, name string, tag int, call func(c *Comm, r *Rank)) {
	t.Helper()
	defer func() {
		rec := fmt.Sprint(recover())
		if !strings.Contains(rec, fmt.Sprint(tag)) || !strings.Contains(rec, name) || !strings.Contains(rec, "reserved for collectives") {
			t.Errorf("%s: panic %q, want one naming the call, tag %d and the collectives' range", name, rec, tag)
		}
	}()
	w := testWorld(t, 2)
	w.Run(func(r *Rank) {
		if r.ID() == 0 {
			call(r.World(), r)
		}
	})
}
