package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// TestShardedBankReservationHandoff drives the cross-shard reservation
// protocol directly: ranks spread over concurrently running shards
// alternate compute bursts with PostReserve grants against a bank owned
// by shard 0, bracketing each operation with PostIOBegin/PostIOEnd so
// the work-conserving demand path crosses shards too. The granted slots
// and final clocks must be identical for every shard count and
// placement; run under -race in CI this is the cross-shard bank handoff
// race test.
func TestShardedBankReservationHandoff(t *testing.T) {
	const ranks, rounds, jobs = 8, 10, 2
	type grant struct{ start, end Time }
	for _, policy := range []BankPolicy{BankFCFS, BankFair, BankFairWC} {
		policy := policy
		run := func(shards int, place func(int) int) ([][]grant, []Time) {
			g := NewShardGroup(3, shards, testLat)
			b := NewBank(2, jobs, policy)
			b.AttachGroup(g, 0)
			grants := make([][]grant, ranks)
			finished := make([]Time, ranks)
			for r := 0; r < ranks; r++ {
				r := r
				eng := g.Shard(place(r))
				job := r % jobs
				eng.SpawnID(r, fmt.Sprintf("rank%d", r), func(p *Proc) {
					var seq uint64
					pri := func() uint64 {
						k := (uint64(r)+1)<<40 | seq
						seq++
						return k
					}
					for i := 0; i < rounds; i++ {
						p.Advance(Time(17 + 3*r))
						b.PostIOBegin(eng, job, pri())
						req := b.PostReserve(eng, job, Time(40+5*r), pri(), p.Fiber)
						p.ParkKeepingDebt("bank grant")
						grants[r] = append(grants[r], grant{req.Start, req.End})
						p.AdvanceTo(req.End)
						b.PostIOEnd(eng, job, pri())
					}
					finished[r] = p.Now()
				})
			}
			if _, err := g.Run(); err != nil {
				t.Fatalf("%v shards=%d: %v", policy, shards, err)
			}
			return grants, finished
		}
		refGrants, refFinished := run(1, func(int) int { return 0 })
		cases := []struct {
			name   string
			shards int
			place  func(rank int) int
		}{
			{"2-blocked", 2, func(r int) int { return r / 4 }},
			{"2-strided", 2, func(r int) int { return r % 2 }},
			{"4-strided", 4, func(r int) int { return r % 4 }},
			{"8", 8, func(r int) int { return r }},
		}
		for _, tc := range cases {
			grants, finished := run(tc.shards, tc.place)
			if !reflect.DeepEqual(grants, refGrants) {
				t.Errorf("%v %s: granted slots diverge from single-shard reference\ngot  %v\nwant %v",
					policy, tc.name, grants, refGrants)
			}
			if !reflect.DeepEqual(finished, refFinished) {
				t.Errorf("%v %s: finish times diverge\ngot  %v\nwant %v",
					policy, tc.name, finished, refFinished)
			}
		}
	}
}

// TestBankResetDetachesGroup pins the pooled-reuse guard: Reset must drop
// the sharded attachment along with the rest of the per-run state, so a
// bank reused across runs never reaches into a dead run's shard group.
func TestBankResetDetachesGroup(t *testing.T) {
	g := NewShardGroup(1, 2, testLat)
	b := NewBank(1, 1, BankFCFS)
	b.AttachGroup(g, 1)
	if !b.Sharded() || b.Group() != g {
		t.Fatalf("attachment did not take: sharded=%v group=%p", b.Sharded(), b.Group())
	}
	b.Reset()
	if b.Sharded() || b.Group() != nil {
		t.Errorf("Reset left the bank attached: sharded=%v group=%p", b.Sharded(), b.Group())
	}
}
