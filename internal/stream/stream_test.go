package stream

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/mpi"
	"repro/internal/sim"
)

// runChannel spawns a world of p ranks where ranks with id < producers are
// producers and the rest are consumers, then runs body.
func runChannel(t *testing.T, procs, producers int, body func(r *mpi.Rank, ch *Channel)) {
	t.Helper()
	w := mpi.NewWorld(mpi.Config{Procs: procs, Seed: 11})
	if _, err := w.Run(func(r *mpi.Rank) {
		role := Consumer
		if r.ID() < producers {
			role = Producer
		}
		ch := CreateChannel(r, r.World(), role)
		body(r, ch)
		ch.Free(r)
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestChannelGroups(t *testing.T) {
	runChannel(t, 6, 4, func(r *mpi.Rank, ch *Channel) {
		if len(ch.producers) != 4 || ch.Consumers() != 2 {
			t.Errorf("groups = %d/%d, want 4/2", len(ch.producers), ch.Consumers())
		}
		switch {
		case r.ID() < 4:
			if ch.ProducerIndex(r) != r.ID() || ch.ConsumerIndex(r) != -1 {
				t.Errorf("rank %d indices wrong", r.ID())
			}
		default:
			if ch.ConsumerIndex(r) != r.ID()-4 || ch.ProducerIndex(r) != -1 {
				t.Errorf("rank %d indices wrong", r.ID())
			}
		}
	})
}

// TestMembershipInterleavedRoles checks the index table against the
// group lists on a channel whose roles interleave (P, C, P, none, P, C):
// every rank's producer and consumer index is its position in the sorted
// group list or -1, and an element from each parent rank unpacks to that
// rank's producer index.
func TestMembershipInterleavedRoles(t *testing.T) {
	roles := []Role{Producer, Consumer, Producer, None, Producer, Consumer}
	position := func(group []int, rank int) int {
		for i, g := range group {
			if g == rank {
				return i
			}
		}
		return -1
	}
	wantProducers, wantConsumers := []int{0, 2, 4}, []int{1, 5}
	w := mpi.NewWorld(mpi.Config{Procs: len(roles), Seed: 11})
	if _, err := w.Run(func(r *mpi.Rank) {
		ch := CreateChannel(r, r.World(), roles[r.ID()])
		s := ch.Attach(r, Options{})
		if fmt.Sprint(ch.producers, ch.consumers) != fmt.Sprint(wantProducers, wantConsumers) {
			t.Errorf("rank %d: groups %v %v, want %v %v", r.ID(), ch.producers, ch.consumers, wantProducers, wantConsumers)
		}
		if got, want := ch.ProducerIndex(r), position(wantProducers, r.ID()); got != want {
			t.Errorf("rank %d: ProducerIndex = %d, want %d", r.ID(), got, want)
		}
		if got, want := ch.ConsumerIndex(r), position(wantConsumers, r.ID()); got != want {
			t.Errorf("rank %d: ConsumerIndex = %d, want %d", r.ID(), got, want)
		}
		for src := range roles {
			if _, got := s.unpack(mpi.Status{Source: src}); got != position(wantProducers, src) {
				t.Errorf("rank %d: element from parent rank %d unpacked as producer %d, want %d", r.ID(), src, got, position(wantProducers, src))
			}
		}
		ch.Free(r)
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestHomeConsumerBlockMapping(t *testing.T) {
	runChannel(t, 6, 4, func(r *mpi.Rank, ch *Channel) {
		if r.ID() != 0 {
			return
		}
		// 4 producers onto 2 consumers: 0,1 -> 0 and 2,3 -> 1.
		for pi, want := range []int{0, 0, 1, 1} {
			if got := ch.HomeConsumer(pi); got != want {
				t.Errorf("HomeConsumer(%d) = %d, want %d", pi, got, want)
			}
		}
	})
}

func TestStreamDeliversAllElementsExactlyOnce(t *testing.T) {
	const producers, consumers, perProducer = 6, 2, 25
	seen := map[string]int{}
	runChannel(t, producers+consumers, producers, func(r *mpi.Rank, ch *Channel) {
		s := ch.Attach(r, Options{ElementBytes: 512})
		switch ch.role {
		case Producer:
			for i := 0; i < perProducer; i++ {
				s.Isend(r, Element{Data: fmt.Sprintf("p%d-e%d", ch.ProducerIndex(r), i)})
			}
			s.Terminate(r)
		case Consumer:
			s.Operate(r, func(r *mpi.Rank, e Element, src int) {
				seen[e.Data.(string)]++
			})
		}
	})
	if len(seen) != producers*perProducer {
		t.Fatalf("saw %d distinct elements, want %d", len(seen), producers*perProducer)
	}
	for k, n := range seen {
		if n != 1 {
			t.Fatalf("element %s delivered %d times", k, n)
		}
	}
}

func TestPerProducerOrderPreserved(t *testing.T) {
	const producers, perProducer = 4, 30
	lastSeen := map[int]int{}
	violations := 0
	runChannel(t, producers+1, producers, func(r *mpi.Rank, ch *Channel) {
		s := ch.Attach(r, Options{})
		if ch.role == Producer {
			for i := 0; i < perProducer; i++ {
				s.Isend(r, Element{Data: i})
			}
			s.Terminate(r)
			return
		}
		s.Operate(r, func(r *mpi.Rank, e Element, src int) {
			seq := e.Data.(int)
			if last, ok := lastSeen[src]; ok && seq != last+1 {
				violations++
			}
			lastSeen[src] = seq
		})
	})
	if violations != 0 {
		t.Fatalf("%d per-producer order violations", violations)
	}
}

func TestExplicitRoutingByKey(t *testing.T) {
	const producers, consumers = 4, 3
	received := make([]map[int]bool, consumers)
	for i := range received {
		received[i] = map[int]bool{}
	}
	runChannel(t, producers+consumers, producers, func(r *mpi.Rank, ch *Channel) {
		s := ch.Attach(r, Options{})
		if ch.role == Producer {
			for key := 0; key < 30; key++ {
				s.IsendTo(r, Element{Data: key}, key%consumers)
			}
			s.Terminate(r)
			return
		}
		ci := ch.ConsumerIndex(r)
		s.Operate(r, func(r *mpi.Rank, e Element, src int) {
			received[ci][e.Data.(int)] = true
		})
	})
	for ci, keys := range received {
		for key := range keys {
			if key%consumers != ci {
				t.Fatalf("consumer %d received key %d (wrong shard)", ci, key)
			}
		}
		if len(keys) != 10 {
			t.Fatalf("consumer %d saw %d keys, want 10", ci, len(keys))
		}
	}
}

func TestInjectOverheadCharged(t *testing.T) {
	elapsed := func(overhead sim.Time) sim.Time {
		var end sim.Time
		runChannel(t, 2, 1, func(r *mpi.Rank, ch *Channel) {
			s := ch.Attach(r, Options{InjectOverhead: overhead})
			if ch.role == Producer {
				for i := 0; i < 1000; i++ {
					s.Isend(r, Element{})
				}
				s.Terminate(r)
				r.Compute(sim.Microsecond) // flush debt into the clock
				end = r.Now()
				return
			}
			s.Operate(r, func(*mpi.Rank, Element, int) {})
		})
		return end
	}
	cheap := elapsed(100 * sim.Nanosecond)
	costly := elapsed(10 * sim.Microsecond)
	if costly < cheap+9*sim.Millisecond {
		t.Fatalf("inject overhead not charged: cheap=%v costly=%v", cheap, costly)
	}
}

func TestFCFSAbsorbsImbalance(t *testing.T) {
	// One slow producer out of four. FCFS consumption should let the
	// consumer process the three fast producers' elements while the slow
	// one trickles; fixed-order consumption stalls on the slow producer.
	run := func(fixed bool) sim.Time {
		var end sim.Time
		w := mpi.NewWorld(mpi.Config{Procs: 5, Seed: 7})
		if _, err := w.Run(func(r *mpi.Rank) {
			role := Consumer
			if r.ID() < 4 {
				role = Producer
			}
			ch := CreateChannel(r, r.World(), role)
			s := ch.Attach(r, Options{FixedOrder: fixed})
			if role == Producer {
				slow := r.ID() == 0
				for i := 0; i < 20; i++ {
					if slow {
						r.Idle(2 * sim.Millisecond) // imbalanced producer
					}
					s.Isend(r, Element{})
				}
				s.Terminate(r)
				return
			}
			s.Operate(r, func(rr *mpi.Rank, e Element, src int) {
				rr.Compute(500 * sim.Microsecond) // processing cost per element
			})
			end = r.Now()
		}); err != nil {
			t.Fatal(err)
		}
		return end
	}
	fcfs, fixed := run(false), run(true)
	if fcfs > fixed {
		t.Fatalf("FCFS (%v) slower than fixed order (%v)", fcfs, fixed)
	}
}

func TestConsumerStatsTimeline(t *testing.T) {
	runChannel(t, 2, 1, func(r *mpi.Rank, ch *Channel) {
		s := ch.Attach(r, Options{})
		if ch.role == Producer {
			for i := 0; i < 10; i++ {
				r.Compute(sim.Millisecond)
				s.Isend(r, Element{Bytes: 2048})
			}
			s.Terminate(r)
			return
		}
		st := s.Operate(r, func(*mpi.Rank, Element, int) {})
		if st.ElementsReceived != 10 || st.Bytes != 20480 {
			t.Errorf("stats = %+v", st)
		}
		if st.FirstAt >= st.LastAt {
			t.Errorf("FirstAt %v not before LastAt %v", st.FirstAt, st.LastAt)
		}
		if st.WaitTime <= 0 {
			t.Errorf("consumer never waited: %+v", st)
		}
	})
}

func TestTwoStreamsOnOneChannelDoNotMix(t *testing.T) {
	countA, countB := 0, 0
	runChannel(t, 3, 2, func(r *mpi.Rank, ch *Channel) {
		a := ch.Attach(r, Options{})
		b := ch.Attach(r, Options{})
		if ch.role == Producer {
			for i := 0; i < 5; i++ {
				a.Isend(r, Element{Data: "A"})
				b.Isend(r, Element{Data: "B"})
			}
			a.Terminate(r)
			b.Terminate(r)
			return
		}
		a.Operate(r, func(r *mpi.Rank, e Element, src int) {
			if e.Data.(string) != "A" {
				t.Errorf("stream A saw %v", e.Data)
			}
			countA++
		})
		b.Operate(r, func(r *mpi.Rank, e Element, src int) {
			if e.Data.(string) != "B" {
				t.Errorf("stream B saw %v", e.Data)
			}
			countB++
		})
	})
	if countA != 10 || countB != 10 {
		t.Fatalf("countA=%d countB=%d, want 10/10", countA, countB)
	}
}

func TestProducerAPIOnConsumerPanics(t *testing.T) {
	runChannel(t, 2, 1, func(r *mpi.Rank, ch *Channel) {
		s := ch.Attach(r, Options{})
		if ch.role == Consumer {
			for _, fn := range []func(){
				func() { s.Isend(r, Element{}) },
				func() { s.Terminate(r) },
			} {
				func() {
					defer func() {
						if recover() == nil {
							t.Error("producer API on consumer did not panic")
						}
					}()
					fn()
				}()
			}
			// Drain the producer's stream so the world terminates.
			s.Operate(r, func(*mpi.Rank, Element, int) {})
			return
		}
		s.Isend(r, Element{})
		s.Terminate(r)
	})
}

func TestIsendAfterTerminatePanics(t *testing.T) {
	runChannel(t, 2, 1, func(r *mpi.Rank, ch *Channel) {
		s := ch.Attach(r, Options{})
		if ch.role == Producer {
			s.Terminate(r)
			defer func() {
				if recover() == nil {
					t.Error("Isend after Terminate did not panic")
				}
			}()
			s.Isend(r, Element{})
			return
		}
		s.Operate(r, func(*mpi.Rank, Element, int) {})
	})
}

func TestDefaultOptions(t *testing.T) {
	o := Options{}.withDefaults()
	if o.ElementBytes != 1024 || o.InjectOverhead != 200*sim.Nanosecond {
		t.Fatalf("defaults = %+v", o)
	}
}

// Property: for arbitrary per-producer element counts, every element is
// delivered exactly once and totals match.
func TestDeliveryCountProperty(t *testing.T) {
	f := func(counts []uint8) bool {
		if len(counts) == 0 {
			return true
		}
		if len(counts) > 6 {
			counts = counts[:6]
		}
		producers := len(counts)
		var want int64
		for _, c := range counts {
			want += int64(c % 40)
		}
		var got int64
		w := mpi.NewWorld(mpi.Config{Procs: producers + 2, Seed: 13})
		_, err := w.Run(func(r *mpi.Rank) {
			role := Consumer
			if r.ID() < producers {
				role = Producer
			}
			ch := CreateChannel(r, r.World(), role)
			s := ch.Attach(r, Options{})
			if role == Producer {
				n := int(counts[r.ID()] % 40)
				for i := 0; i < n; i++ {
					s.Isend(r, Element{})
				}
				s.Terminate(r)
				return
			}
			st := s.Operate(r, func(*mpi.Rank, Element, int) {})
			got += st.ElementsReceived
		})
		return err == nil && got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestUnpackZeroAlloc pins the stream's wire format: the element arrives
// as the message's own size and payload, unpack rebuilds it without
// allocating, and the producer index comes from the message's source.
func TestUnpackZeroAlloc(t *testing.T) {
	roles := make([]mpi.Part, 10)
	for rank := range roles {
		roles[rank].Data = None
	}
	for _, rank := range []int{2, 5, 7} {
		roles[rank].Data = Producer
	}
	roles[9].Data = Consumer
	s := &Stream{ch: &Channel{membership: newMembership(roles)}}
	payload := interface{}("particles")
	st := mpi.Status{Source: 5, Bytes: 64, Data: payload}

	var elem Element
	var src int
	if n := testing.AllocsPerRun(100, func() { elem, src = s.unpack(st) }); n != 0 {
		t.Errorf("unpacking an element allocates %.0f objects, want 0", n)
	}
	if src != 1 || elem.Bytes != 64 || elem.Data != payload {
		t.Errorf("element from parent rank 5 unpacked as %+v from producer %d, want producer 1 with 64 bytes of %v", elem, src, payload)
	}
}
