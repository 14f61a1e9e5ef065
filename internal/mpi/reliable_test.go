package mpi

import (
	"reflect"
	"testing"

	"repro/internal/netmodel"
	"repro/internal/sim"
)

// TestReliableDropRetransmit loses one named transmission (a planned
// coupon on the first message of the 0->1 pair) and checks the
// retransmission delivers it: the receive completes with the right
// payload and exactly one timer-driven re-send fired.
func TestReliableDropRetransmit(t *testing.T) {
	mf := &netmodel.MsgFaults{
		Drops: map[netmodel.MsgDropKey]bool{{Src: 0, Dst: 1, Seq: 0}: true},
	}
	w := NewWorld(Config{Procs: 2, Seed: 3, MsgFaults: mf})
	var got int64 = -1
	_, err := w.Run(func(r *Rank) {
		c := r.World()
		if r.ID() == 0 {
			c.Send(r, 1, 7, 64, int64(42))
			return
		}
		st := c.Recv(r, 0, 7)
		got = st.Data.(int64)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got != 42 {
		t.Errorf("payload %d, want 42", got)
	}
	if n := w.Retransmits(); n != 1 {
		t.Errorf("retransmits %d, want 1 (the dropped first attempt)", n)
	}
}

// TestReliableDupSuppression duplicates every transmission and checks
// each message is still released to matching exactly once: a fixed
// number of receives completes and nothing extra is queued afterwards.
func TestReliableDupSuppression(t *testing.T) {
	const msgs = 8
	mf := &netmodel.MsgFaults{DupSeed: 5, DupRate: 1}
	w := NewWorld(Config{Procs: 2, Seed: 3, MsgFaults: mf})
	var sum int64
	var extra bool
	_, err := w.Run(func(r *Rank) {
		c := r.World()
		if r.ID() == 0 {
			for i := 0; i < msgs; i++ {
				c.Send(r, 1, 7, 64, int64(i))
			}
			return
		}
		for i := 0; i < msgs; i++ {
			sum += c.Recv(r, 0, 7).Data.(int64)
		}
		r.Idle(sim.Second) // let any stray duplicate arrive
		extra = r.rs.match.live > 0
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if want := int64(msgs * (msgs - 1) / 2); sum != want {
		t.Errorf("payload sum %d, want %d", sum, want)
	}
	if extra {
		t.Errorf("a duplicate leaked past suppression into the unexpected queue")
	}
}

// TestReliableOrderingUnderLoss streams sequence-stamped payloads
// through a 30%-lossy fabric and checks the receiver sees them in
// order: the protocol's per-source in-order release preserves MPI's
// non-overtaking guarantee however the retransmissions interleave, and
// the reorder buffer lets go of every arrival it released.
func TestReliableOrderingUnderLoss(t *testing.T) {
	const msgs = 64
	mf := &netmodel.MsgFaults{DropSeed: 9, DropRate: 0.3}
	w := NewWorld(Config{Procs: 2, Seed: 3, MsgFaults: mf})
	_, err := w.Run(func(r *Rank) {
		c := r.World()
		if r.ID() == 0 {
			for i := 0; i < msgs; i++ {
				c.Send(r, 1, 7, 64, int64(i))
			}
			return
		}
		for i := 0; i < msgs; i++ {
			if got := c.Recv(r, 0, 7).Data.(int64); got != int64(i) {
				t.Errorf("receive %d got payload %d", i, got)
			}
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if w.Retransmits() == 0 {
		t.Errorf("a 30%% loss rate over %d messages retransmitted nothing", msgs)
	}
	if held := w.ranks[1].relIn[0].held; len(held) != 0 {
		t.Errorf("the reorder buffer still holds %d released arrivals", len(held))
	}
}

// TestReliableUnreachable drops every transmission: the retry cap must
// revoke the world with *RankUnreachableError, surfacing through
// Protect on every blocked rank instead of deadlocking.
func TestReliableUnreachable(t *testing.T) {
	mf := &netmodel.MsgFaults{DropSeed: 1, DropRate: 1}
	w := NewWorld(Config{Procs: 2, Seed: 3, MsgFaults: mf})
	errs := make([]error, 2)
	_, err := w.Run(func(r *Rank) {
		c := r.World()
		errs[r.ID()] = r.Protect(func() {
			if r.ID() == 0 {
				c.Send(r, 1, 7, 64, nil) // buffered: completes locally
				c.Recv(r, 1, 8)          // blocks until the revocation
				return
			}
			c.Recv(r, 0, 7)
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for rank, e := range errs {
		ue, ok := e.(*RankUnreachableError)
		if !ok {
			t.Fatalf("rank %d: error %v (%T), want *RankUnreachableError", rank, e, e)
		}
		if ue.Src != 0 || ue.Dst != 1 || ue.Attempts != retryLimit+1 {
			t.Errorf("rank %d: %+v, want src 0 dst 1 after %d attempts", rank, ue, retryLimit+1)
		}
	}
}

// TestWaitSendWindow checks the ack'd sliding window bounds in-flight
// state under loss: after each WaitSendWindow(2) at most two sends are
// unacked, so the backlog never exceeds three; WaitSendWindow(0) returns
// once the last ack is in; a backlog already within the window returns
// without flushing the rank's debt; and on a lossless world the call is a
// no-op returning a zero backlog.
func TestWaitSendWindow(t *testing.T) {
	const msgs, window = 32, 2
	mf := &netmodel.MsgFaults{DropSeed: 4, DropRate: 0.3}
	w := NewWorld(Config{Procs: 2, Seed: 3, MsgFaults: mf})
	maxSeen := 0
	_, err := w.Run(func(r *Rank) {
		c := r.World()
		if r.ID() == 0 {
			for i := 0; i < msgs; i++ {
				c.IsendAndFree(r, 1, 7, 64, int64(i))
				if n := r.rs.relUnacked; n > maxSeen {
					maxSeen = n
				}
				r.WaitSendWindow(window)
				if n := r.rs.relUnacked; n > window {
					t.Fatalf("backlog %d after WaitSendWindow(%d)", n, window)
				}
			}
			r.WaitSendWindow(0)
			if n := r.rs.relUnacked; n != 0 {
				t.Fatalf("backlog %d after WaitSendWindow(0)", n)
			}
			c.IsendAndFree(r, 1, 7, 64, int64(msgs))
			now := r.Now()
			r.WaitSendWindow(1)
			if r.Now() != now {
				t.Errorf("WaitSendWindow(1) with one send unacked moved the clock from %v to %v", now, r.Now())
			}
			return
		}
		for i := 0; i <= msgs; i++ {
			c.Recv(r, 0, 7)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if maxSeen > window+1 {
		t.Errorf("max backlog %d, want <= %d", maxSeen, window+1)
	}

	// Lossless world: the call must return instantly with nothing queued.
	w2 := NewWorld(Config{Procs: 2, Seed: 3})
	_, err = w2.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.World().IsendAndFree(r, 1, 7, 64, nil)
			r.WaitSendWindow(0)
			if r.rs.relUnacked != 0 {
				t.Errorf("lossless world reports unacked sends")
			}
		} else {
			r.World().Recv(r, 0, 7)
		}
	})
	if err != nil {
		t.Fatalf("Run (lossless): %v", err)
	}
}

// lossyOutcome is the comparable fingerprint of a lossy run used by the
// replay tests.
type lossyOutcome struct {
	end         sim.Time
	committed   int
	retransmits int64
}

// runLossy executes the checkpoint-aware collective body (shared with
// the crash tests) under cfg and fingerprints the run.
func runLossy(t *testing.T, cfg Config, iters int) lossyOutcome {
	t.Helper()
	st := newRecShared(iters, cfg.Procs)
	w := NewWorld(cfg)
	end := mustRun(t, w, recProcBody(st))
	allFinished(t, w)
	o := lossyOutcome{end: end, committed: st.committed, retransmits: w.Retransmits()}
	w.Release()
	return o
}

// TestLossyReplayDeterministic pins the replay contract: a fixed lossy
// campaign (drop and duplication rates plus three planned single-message
// losses) yields bit-identical outcomes across pooled-world reuse.
func TestLossyReplayDeterministic(t *testing.T) {
	const procs, iters = 4, 16
	mf := &netmodel.MsgFaults{
		DropSeed: 5504686884045531332, DropRate: 0.25,
		DupSeed: -4899736365754075266, DupRate: 0.1,
		Drops: map[netmodel.MsgDropKey]bool{{Src: 0, Dst: 1, Seq: 6}: true, {Src: 0, Dst: 1, Seq: 43}: true, {Src: 1, Dst: 2, Seq: 29}: true},
	}
	cfg := Config{Procs: procs, Seed: 11, MsgFaults: mf}

	first := runLossy(t, cfg, iters)
	if first.committed != iters {
		t.Fatalf("committed %d of %d", first.committed, iters)
	}
	if first.retransmits == 0 {
		t.Fatalf("a 25%% loss campaign retransmitted nothing")
	}
	if got := runLossy(t, cfg, iters); got != first {
		t.Errorf("pooled-reuse replay diverged: %+v vs %+v", got, first)
	}
}

// TestCrashDuringRetransmitReplay composes the crash and message-fault
// families: a rank dies mid-run while the lossy fabric keeps sends
// unacked, recovery rebuilds, and the whole dance replays bit-for-bit
// across pooled reuse.
func TestCrashDuringRetransmitReplay(t *testing.T) {
	const procs, iters = 4, 16
	base := baselineMakespan(t, procs, iters)
	cfg := Config{
		Procs: procs, Seed: 11,
		MsgFaults: &netmodel.MsgFaults{DropSeed: 21, DropRate: 0.2},
		Crashes: []sim.CrashEvent{
			{At: base / 3, Target: 2, Restart: 100 * sim.Microsecond},
		},
	}
	first := runLossy(t, cfg, iters)
	if first.committed != iters {
		t.Fatalf("committed %d of %d", first.committed, iters)
	}
	if got := runLossy(t, cfg, iters); got != first {
		t.Errorf("pooled-reuse replay diverged: %+v vs %+v", got, first)
	}
}

// TestLossUnderLinkFlapReplay composes message faults with link
// latency/bandwidth flaps: retransmission timers and stretched wire
// costs interact, and the trajectory still replays bit-for-bit.
func TestLossUnderLinkFlapReplay(t *testing.T) {
	const procs, iters = 4, 12
	cfg := Config{
		Procs: procs, Seed: 11,
		MsgFaults: &netmodel.MsgFaults{DropSeed: 31, DropRate: 0.25},
		LinkFaults: &netmodel.LinkFaults{
			Latency:   []sim.FaultWindow{{Start: 0, End: 2 * sim.Second, Factor: 6}},
			Bandwidth: []sim.FaultWindow{{Start: sim.Second / 2, End: sim.Second, Factor: 4}},
		},
	}
	first := runLossy(t, cfg, iters)
	if first.committed != iters {
		t.Fatalf("committed %d of %d", first.committed, iters)
	}
	if got := runLossy(t, cfg, iters); got != first {
		t.Errorf("pooled-reuse replay diverged: %+v vs %+v", got, first)
	}
}

// TestKillWithUnackedSends extends the kill-collective leak test to the
// reliable protocol: rank 0 dies holding a window's worth of unacked
// sends (its peer never posts the receives), while rank 2, holding its
// own, waits for their acks; the revocation wakes rank 2, the failure
// surfaces, the world rebuilds, and every body finishes with no rank left
// parked and no reliable state leaking across the rebuild.
func TestKillWithUnackedSends(t *testing.T) {
	const procs = 4
	mf := &netmodel.MsgFaults{DropSeed: 7, DropRate: 0.5}
	body := func(st *recShared) func(r *Rank) {
		return func(r *Rank) {
			c := r.World()
			if r.Incarnation() > 0 {
				st.restarts[r.ID()]++
				r.Rebuild()
			}
			for {
				err := r.Protect(func() {
					if st.committed == 0 && r.Incarnation() == 0 && r.ID()%2 == 0 {
						// Fire-and-forget sends nobody receives: they sit
						// unacked (half the transmissions drop) until the
						// crash below kills rank 0 mid-window.
						for i := 0; i < 8; i++ {
							c.IsendAndFree(r, r.ID()+1, 99, 1<<16, nil)
						}
						r.WaitSendWindow(0) // parked here at the kill instant
					}
					c.Barrier(r)
					r.CheckFailed()
					st.committed++
				})
				if err == nil {
					return
				}
				st.fails[r.ID()]++
				r.Rebuild()
			}
		}
	}
	st := newRecShared(1, procs)
	cfg := Config{
		Procs: procs, Seed: 11, MsgFaults: mf,
		Crashes: []sim.CrashEvent{{At: 50 * sim.Microsecond, Target: 0, Restart: 100 * sim.Microsecond}},
	}
	w := NewWorld(cfg)
	mustRun(t, w, body(st))
	allFinished(t, w)
	if st.restarts[0] != 1 {
		t.Errorf("rank 0 restarts %d, want 1", st.restarts[0])
	}
	for i, rs := range w.ranks {
		if n := rs.relUnacked; n != 0 {
			t.Errorf("rank %d leaked %d unacked entries across the rebuild", i, n)
		}
		for src, rb := range rs.relIn {
			if len(rb.held) != 0 {
				t.Errorf("rank %d leaked %d held messages from source %d", i, len(rb.held), src)
			}
		}
		if rs.ioDepth != 0 {
			t.Errorf("rank %d leaked ioDepth %d", i, rs.ioDepth)
		}
	}
	w.Release()
}

// lossyFanIn is eight senders streaming 12 KiB messages into rank 0, close
// enough together that the receiver NIC queues them and some acks come
// back later than their timers, then a barrier and an allreduce.
func lossyFanIn(r *Rank) {
	const msgs = 12
	c := r.World()
	if r.ID() == 0 {
		for i := 0; i < msgs*(r.World().Size()-1); i++ {
			c.Recv(r, AnySource, 3)
			r.Compute(2 * sim.Microsecond)
		}
	} else {
		for i := 0; i < msgs; i++ {
			c.Send(r, 0, 3, 12<<10, nil)
			r.Compute(sim.Time(2*r.ID()) * sim.Microsecond)
		}
	}
	c.Barrier(r)
	c.Allreduce(r, Part{Bytes: 8, Data: float64(r.ID())}, SumFloat64, nil)
}

// TestLossyProtocolPinned holds the reliable protocol to the makespan,
// retransmission count and per-rank finish instants recorded when every
// transmission armed its timer at once: a timer is now scheduled only
// when its ack cannot beat it, and that must change no outcome. The empty
// table arms the protocol on a lossless fabric, so every retransmission
// there is an ack that lost to its timer at the congested receiver.
func TestLossyProtocolPinned(t *testing.T) {
	cases := []struct {
		mf          *netmodel.MsgFaults
		makespan    sim.Time
		retransmits int64
		finish      []sim.Time
	}{
		{&netmodel.MsgFaults{}, 247156, 85,
			[]sim.Time{241606, 243456, 243456, 245306, 243456, 245306, 245306, 247156, 242406}},
		{&netmodel.MsgFaults{DropSeed: 17, DropRate: 0.02, DupSeed: 19, DupRate: 0.005}, 246256, 61,
			[]sim.Time{240706, 242556, 242556, 244406, 242556, 244406, 244406, 246256, 241506}},
		{&netmodel.MsgFaults{DropSeed: 17, DropRate: 0.1, DupSeed: 19, DupRate: 0.025}, 287756, 79,
			[]sim.Time{267106, 268956, 268956, 270806, 284056, 285906, 285906, 287756, 267906}},
	}
	for _, tc := range cases {
		w := NewWorld(Config{Procs: 9, Seed: 7, MsgFaults: tc.mf})
		mustRun(t, w, lossyFanIn)
		finish := make([]sim.Time, len(w.ranks))
		for i, rs := range w.ranks {
			finish[i] = rs.fib.FinishedAt()
		}
		if w.Makespan() != tc.makespan || w.Retransmits() != tc.retransmits || !reflect.DeepEqual(finish, tc.finish) {
			t.Errorf("drop rate %v: makespan %d, %d retransmits, finish %v;\nwant %d, %d, %v",
				tc.mf.DropRate, w.Makespan(), w.Retransmits(), finish, tc.makespan, tc.retransmits, tc.finish)
		}
		w.Release()
	}
}

// TestAckTieGoesToTimer sets up an ack due exactly at its message's
// retransmission deadline: rank 2's empty message queues at rank 0's NIC
// behind rank 1's megabyte, and rank 2 sends it at the one instant where
// the queueing delay equals the timeout slack. At equal instants the
// timer fires first, so the message is sent again; a nanosecond later the
// ack wins and nothing is. Recorded when every timer was armed at
// transmission.
func TestAckTieGoesToTimer(t *testing.T) {
	for _, tc := range []struct {
		at          sim.Time // when rank 2 sends
		retransmits int64
	}{{188049, 1}, {188050, 1}, {188051, 0}} {
		w := NewWorld(Config{Procs: 3, Seed: 1, MsgFaults: &netmodel.MsgFaults{}})
		mustRun(t, w, func(r *Rank) {
			c := r.World()
			switch r.ID() {
			case 0:
				c.Recv(r, AnySource, 0)
				c.Recv(r, AnySource, 0)
			case 1:
				c.Send(r, 0, 0, 1000000, nil)
			case 2:
				r.Compute(tc.at)
				c.Send(r, 0, 0, 0, nil)
			}
		})
		if w.Retransmits() != tc.retransmits || w.Makespan() != 202500 {
			t.Errorf("send at %v: %d retransmits, makespan %v; want %d, 202.500us",
				tc.at, w.Retransmits(), w.Makespan(), tc.retransmits)
		}
	}
}

// TestLinkFaultsStretchTheProtocol loses the first copy of one 4 KiB
// message on a link whose latency is stretched 32 times and its bandwidth
// 4 times. Each retransmission pays both stretches and arrives after its
// own timer's deadline, so that timer is armed at transmission and fires
// before the ack, which pays the stretched latency too, comes back. The
// retransmit count and both ranks' finish instants are pinned.
func TestLinkFaultsStretchTheProtocol(t *testing.T) {
	w := NewWorld(Config{Procs: 2, Seed: 1,
		MsgFaults: &netmodel.MsgFaults{Drops: map[netmodel.MsgDropKey]bool{{Src: 0, Dst: 1, Seq: 0}: true}},
		LinkFaults: &netmodel.LinkFaults{
			Latency:   []sim.FaultWindow{{Start: 0, End: sim.Second, Factor: 32}},
			Bandwidth: []sim.FaultWindow{{Start: 0, End: sim.Second, Factor: 4}},
		}})
	var finish [2]sim.Time
	mustRun(t, w, func(r *Rank) {
		if r.ID() == 0 {
			r.World().Send(r, 1, 7, 1<<12, nil)
			r.WaitSendWindow(0)
		} else {
			r.World().Recv(r, 0, 7)
		}
		finish[r.ID()] = r.Now()
	})
	if w.Retransmits() != 3 || finish != [2]sim.Time{118644, 70944} {
		t.Errorf("%d retransmits, finish %v; want 3, [118.644us 70.944us]", w.Retransmits(), finish)
	}
}

// TestUnreachableThenRebuild: a latency flap makes every copy of the
// first messages arrive after the last retransmission timer, so the
// protocol gives up and revokes the world. After the flap the ranks
// rebuild and exchange the same messages again; both sides of every pair
// must restart their sequence numbers, or the new messages would wait
// behind the lost ones for ever.
func TestUnreachableThenRebuild(t *testing.T) {
	w := NewWorld(Config{Procs: 2, Seed: 1, MsgFaults: &netmodel.MsgFaults{},
		LinkFaults: &netmodel.LinkFaults{Latency: []sim.FaultWindow{{Start: 0, End: 5 * sim.Millisecond, Factor: 10000}}}})
	var errs []error
	mustRun(t, w, func(r *Rank) {
		c := r.World()
		for {
			err := r.Protect(func() {
				if r.ID() == 0 {
					c.Send(r, 1, 7, 64, nil)
				} else {
					c.Recv(r, 0, 7)
				}
				c.Barrier(r)
				r.CheckFailed()
			})
			if err == nil {
				return
			}
			errs = append(errs, err)
			r.Rebuild()
		}
	})
	if len(errs) != 2 {
		t.Fatalf("failures %v, want one per rank", errs)
	}
	for _, err := range errs {
		if _, ok := err.(*RankUnreachableError); !ok {
			t.Errorf("failure %v (%T), want *RankUnreachableError", err, err)
		}
	}
}

// TestRelResetFreesHeldArrivals: a revocation empties every reorder
// buffer, and each arrival a buffer held goes back to its rank's message
// pool, where the rebuilt world's next send finds it.
func TestRelResetFreesHeldArrivals(t *testing.T) {
	w := NewWorld(Config{Procs: 2, Seed: 3, MsgFaults: &netmodel.MsgFaults{DropSeed: 9, DropRate: 0.3}})
	rs := w.ranks[1]
	rs.relIn = make([]relRecvBuf, 2) // as rank 1's first reliable arrival makes it
	rb := &rs.relIn[0]
	rb.held = map[uint64]*message{}
	for seq := uint64(1); seq <= 3; seq++ {
		rb.held[seq] = rs.pool.newMessage()
	}
	free := len(rs.pool.msgFree)
	w.relReset()
	if len(rb.held) != 0 {
		t.Errorf("the reorder buffer still holds %d arrivals after the reset", len(rb.held))
	}
	if n := len(rs.pool.msgFree) - free; n != 3 {
		t.Errorf("%d of the 3 held arrivals are back in the pool after the reset", n)
	}
}
