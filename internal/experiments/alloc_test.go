package experiments

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// mallocsDuring reports the heap allocations performed by f. The caller
// disables the GC for the warm-up and the measurement together: a
// collection in between would empty the sync.Pools the warm-up filled,
// and the first measured run would pay to refill them.
func mallocsDuring(f func()) int64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return int64(after.Mallocs) - int64(before.Mallocs)
}

// TestFiberAppBodySteadyStateAllocs pins the pooled app-body closures:
// the synthetic decoupled body (producer inject loop + FOperate consumer
// loop, the Fig. 5/ablation hot path) must allocate at most the
// per-element stream payload in steady state, with every continuation
// hoisted to body setup and every runtime object (requests, messages,
// fiber wait states, wakers) pooled. The budget is 3 allocations per
// element. Before the continuations were hoisted and requests pooled
// this path cost several further allocations per element.
func TestFiberAppBodySteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation guards are meaningless under the race detector")
	}
	base := DefaultSynthetic(8)
	run := func(elements int64) {
		c := base
		c.D = elements * c.S
		if _, err := RunSyntheticDecoupled(c); err != nil {
			t.Fatal(err)
		}
	}
	const short, long = 200, 600
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// Warm the pools past the long run's high-water mark.
	run(long)
	run(long)
	mShort := mallocsDuring(func() { run(short) })
	mLong := mallocsDuring(func() { run(long) })
	perElem := float64(mLong-mShort) / float64(long-short)
	const payloadAllocs = 3
	if perElem > payloadAllocs {
		t.Errorf("decoupled body allocates %.2f allocs/element in steady state (%d mallocs at %d elements, %d at %d), want <= %d (stream payload only)",
			perElem, mShort, short, mLong, long, payloadAllocs)
	}
}
