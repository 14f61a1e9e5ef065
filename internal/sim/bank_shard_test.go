package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// bankGrant is one granted slot.
type bankGrant struct{ start, end Time }

// runShardedBankProgram runs ranks spread over shards by place, each
// alternating compute bursts with PostReserve grants against a bank under
// policy owned by shard 0, bracketing each operation with
// PostIOBegin/PostIOEnd so the work-conserving demand path crosses shards
// too. The bank shadows each of shadows; survived reports which shadows
// reproduced every grant.
func runShardedBankProgram(t *testing.T, policy BankPolicy, shards int, place func(int) int, shadows []BankPolicy) (grants [][]bankGrant, finished []Time, survived []bool) {
	t.Helper()
	const ranks, rounds, jobs = 8, 10, 2
	g := NewShardGroup(3, shards, testLat)
	b := NewBank(2, jobs, policy)
	b.AttachGroup(g, 0)
	sh := make([]*Bank, len(shadows))
	for i, q := range shadows {
		sh[i] = b.Shadow(q)
	}
	b.SetWeight(1, 3)
	grants = make([][]bankGrant, ranks)
	finished = make([]Time, ranks)
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
				grants[r] = append(grants[r], bankGrant{req.Start, req.End})
				p.AdvanceTo(req.End)
				b.PostIOEnd(eng, job, pri())
			}
			finished[r] = p.Now()
		})
	}
	if _, err := g.Run(); err != nil {
		t.Fatalf("%v shards=%d: %v", policy, shards, err)
	}
	survived = make([]bool, len(sh))
	for i, s := range sh {
		survived[i] = b.Reproduced(s)
	}
	return grants, finished, survived
}

// shardPlacements are the shard counts and rank placements the sharded
// bank tests compare against one shard.
var shardPlacements = []struct {
	name   string
	shards int
	place  func(rank int) int
}{
	{"2-blocked", 2, func(r int) int { return r / 4 }},
	{"2-strided", 2, func(r int) int { return r % 2 }},
	{"4-strided", 4, func(r int) int { return r % 4 }},
	{"8", 8, func(r int) int { return r }},
}

// TestShardedBankReservationHandoff drives the cross-shard reservation
// protocol directly (runShardedBankProgram). The granted slots and final
// clocks must be identical for every shard count and placement; run under
// -race in CI this is the cross-shard bank handoff race test.
func TestShardedBankReservationHandoff(t *testing.T) {
	for _, policy := range []BankPolicy{BankFCFS, BankFair, BankFairWC} {
		refGrants, refFinished, _ := runShardedBankProgram(t, policy, 1, func(int) int { return 0 }, nil)
		for _, tc := range shardPlacements {
			grants, finished, _ := runShardedBankProgram(t, policy, tc.shards, tc.place, nil)
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

// TestShardedBankShadowsMatchOwnRuns: shadows of a sharded bank are fed on
// the owner shard only, inside the real bank's handlers. At every shard
// count and placement, a shadow under q survives exactly when the program
// run under q itself grants every slot as the real bank did.
func TestShardedBankShadowsMatchOwnRuns(t *testing.T) {
	one := func(int) int { return 0 }
	own := make(map[BankPolicy][][]bankGrant)
	for _, q := range allBankPolicies {
		own[q], _, _ = runShardedBankProgram(t, q, 1, one, nil)
	}
	var kept, dropped int
	for _, policy := range allBankPolicies {
		want := make([]bool, len(allBankPolicies))
		for i, q := range allBankPolicies {
			want[i] = reflect.DeepEqual(own[q], own[policy])
			if q != policy {
				if want[i] {
					kept++
				} else {
					dropped++
				}
			}
		}
		for _, tc := range shardPlacements {
			grants, _, survived := runShardedBankProgram(t, policy, tc.shards, tc.place, allBankPolicies)
			if !reflect.DeepEqual(grants, own[policy]) {
				t.Errorf("%v %s: shadows moved the real bank's grants", policy, tc.name)
			}
			if !reflect.DeepEqual(survived, want) {
				t.Errorf("%v %s: shadows of %v survived %v, own runs agree %v", policy, tc.name, allBankPolicies, survived, want)
			}
		}
	}
	if kept == 0 || dropped == 0 {
		t.Errorf("program does not separate the policies: %d shadows kept, %d dropped", kept, dropped)
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
