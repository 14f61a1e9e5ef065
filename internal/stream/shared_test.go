package stream

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/mpi"
	"repro/internal/sim"
)

// TestHomeProducersMatchesHomeConsumer checks the closed form against the
// block mapping it inverts, for every group shape up to 12 x 12 (more
// consumers than producers included, where some consumers are nobody's
// home).
func TestHomeProducersMatchesHomeConsumer(t *testing.T) {
	for p := 1; p <= 12; p++ {
		for c := 1; c <= 12; c++ {
			ch := &Channel{membership: &membership{producers: make([]int, p), consumers: make([]int, c)}}
			for ci := 0; ci < c; ci++ {
				var want []int
				for pi := 0; pi < p; pi++ {
					if ch.HomeConsumer(pi) == ci {
						want = append(want, pi)
					}
				}
				lo, hi := ch.homeProducers(ci)
				var got []int
				for pi := lo; pi < hi; pi++ {
					got = append(got, pi)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%d producers, %d consumers: homeProducers(%d) = %v, the block mapping says %v", p, c, ci, got, want)
				}
			}
		}
	}
}

// sharedChannelTrace is what one rank of the sharded channel workload
// records.
type sharedChannelTrace struct {
	Finish           sim.Time
	ProdIdx, ConsIdx int
	Groups           [2]int
	Received         []string
}

// runSharedChannels creates two channels with interleaved roles (so both
// groups span every shard), streams a few elements through each and frees
// them. On the way out every rank checks that the world's channel registry
// no longer holds a membership: all members have joined by then.
func runSharedChannels(t *testing.T, shards int, fibers bool) []sharedChannelTrace {
	t.Helper()
	const procs = 12
	traces := make([]sharedChannelTrace, procs)
	roleOf := func(rank, channel int) Role {
		if (rank+channel)%4 == 3 {
			return Consumer
		}
		return Producer
	}
	registryDrained := func(r *mpi.Rank) {
		r.StashLocked(func(stash map[string]interface{}) {
			for key, v := range stash {
				if reg, ok := v.(*channelRegistry); ok && len(reg.joining) != 0 {
					t.Errorf("rank %d: %s still holds %d memberships after every member joined", r.ID(), key, len(reg.joining))
				}
			}
		})
	}
	w := mpi.NewWorld(mpi.Config{Procs: procs, Seed: 11, Shards: shards, Place: func(rank int) int { return rank % shards }})
	var err error
	if fibers {
		_, err = w.RunFibers(func(r *mpi.Rank, _ *sim.Fiber) sim.StepFunc {
			tr := &traces[r.ID()]
			channel := 0
			var next sim.StepFunc
			next = func(*sim.Fiber) sim.StepFunc {
				if channel == 2 {
					registryDrained(r)
					tr.Finish = r.Now()
					return nil
				}
				role := roleOf(r.ID(), channel)
				channel++
				return FCreateChannel(r, r.World(), role, func(ch *Channel) sim.StepFunc {
					tr.ProdIdx, tr.ConsIdx = ch.ProducerIndex(r), ch.ConsumerIndex(r)
					tr.Groups = [2]int{len(ch.producers), ch.Consumers()}
					s := ch.Attach(r, Options{})
					free := func(*sim.Fiber) sim.StepFunc { return ch.FFree(r, next) }
					if role == Consumer {
						return s.FOperate(r, func(r *mpi.Rank, e Element, src int, then sim.StepFunc) sim.StepFunc {
							tr.Received = append(tr.Received, fmt.Sprintf("%v from %d at %v", e.Data, src, r.Now()))
							return then
						}, func(Stats) sim.StepFunc { return free })
					}
					for i := 0; i < 3; i++ {
						s.Isend(r, Element{Data: r.ID()*10 + i})
					}
					s.Terminate(r)
					return free
				})
			}
			return next
		})
	} else {
		_, err = w.Run(func(r *mpi.Rank) {
			tr := &traces[r.ID()]
			for channel := 0; channel < 2; channel++ {
				role := roleOf(r.ID(), channel)
				ch := CreateChannel(r, r.World(), role)
				tr.ProdIdx, tr.ConsIdx = ch.ProducerIndex(r), ch.ConsumerIndex(r)
				tr.Groups = [2]int{len(ch.producers), ch.Consumers()}
				s := ch.Attach(r, Options{})
				if role == Consumer {
					s.Operate(r, func(r *mpi.Rank, e Element, src int) {
						tr.Received = append(tr.Received, fmt.Sprintf("%v from %d at %v", e.Data, src, r.Now()))
					})
				} else {
					for i := 0; i < 3; i++ {
						s.Isend(r, Element{Data: r.ID()*10 + i})
					}
					s.Terminate(r)
				}
				ch.Free(r)
			}
			registryDrained(r)
			tr.Finish = r.Now()
		})
	}
	if err != nil {
		t.Fatalf("shards=%d fibers=%v: %v", shards, fibers, err)
	}
	return traces
}

// TestSharedStateCreateChannelAcrossShards checks the shared channel
// membership under the parallel mode: members on different shards join
// through the world stash concurrently (CI runs this under -race
// -count=10), and group indices, delivered elements and finish instants
// are identical for 1, 2, 3 and 4 shards and for both representations. A
// lone world of one shard must be the sharded trajectory family: the
// classic one orders same-instant arrivals at a consumer differently (rank
// 7 sees "50 from 4" before "40 from 3"). The sweeps show the families
// part only at scale (fig7 at 2,048 ranks); this program shows it at 12.
func TestSharedStateCreateChannelAcrossShards(t *testing.T) {
	ref := runSharedChannels(t, 2, false)
	for rank, tr := range ref {
		// The second channel's consumers are the ranks with (rank+1)%4 == 3.
		wantCons := -1
		if rank%4 == 2 {
			wantCons = rank / 4
		}
		if tr.ConsIdx != wantCons || (tr.ProdIdx < 0) == (wantCons < 0) || tr.Groups != [2]int{9, 3} {
			t.Fatalf("rank %d: producer index %d, consumer index %d, groups %v", rank, tr.ProdIdx, tr.ConsIdx, tr.Groups)
		}
		// Three home producers, three elements each; a rank consumes on at
		// most one of the two channels.
		if want := map[bool]int{true: 9}[rank%4 >= 2]; len(tr.Received) != want {
			t.Fatalf("rank %d received %d elements, want %d", rank, len(tr.Received), want)
		}
	}
	for _, shards := range []int{1, 2, 3, 4} {
		for _, fibers := range []bool{false, true} {
			got := runSharedChannels(t, shards, fibers)
			for rank := range ref {
				g, want := got[rank], ref[rank]
				if !reflect.DeepEqual(g, want) {
					t.Errorf("shards=%d fibers=%v rank %d diverged from the 2-shard goroutine reference:\n  ref %+v\n  got %+v", shards, fibers, rank, want, g)
				}
			}
		}
	}
}
