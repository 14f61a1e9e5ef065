package experiments

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// mallocsDuring reports the heap allocations performed by f, with the GC
// disabled so pool contents survive the measurement.
func mallocsDuring(f func()) uint64 {
	prev := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(prev)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestFiberAppBodySteadyStateAllocs pins the pooled app-body closures:
// the synthetic decoupled body (producer inject loop + FOperate consumer
// loop, the Fig. 5/ablation hot path) must allocate only the per-element
// stream payload in steady state, with every continuation hoisted to
// body setup and every runtime object (requests, messages, fiber wait
// states, wakers) pooled. The payload budget is 3 allocations per
// element: the []Element batch slice, its interface boxing as message
// data, and — when the consumer is backlogged, as it is here — the
// message object itself, which enters the unexpected queue and is
// deliberately left to the GC (wildcard side-lists may still reference
// it; see World.freeMessage). Before the continuations were hoisted and
// requests pooled this path cost several further allocations per
// element.
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
	// Warm the pools past the long run's high-water mark.
	run(long)
	run(long)
	mShort := mallocsDuring(func() { run(short) })
	mLong := mallocsDuring(func() { run(long) })
	perElem := float64(mLong-mShort) / float64(long-short)
	const payloadAllocs = 3 // []Element slice + boxing + queued message
	if perElem > payloadAllocs {
		t.Errorf("decoupled body allocates %.2f allocs/element in steady state, want <= %d (stream payload only)",
			perElem, payloadAllocs)
	}
}
