package main

import (
	"time"

	"repro/internal/faults"
	"repro/internal/netmodel"
)

// planCompile plans and compiles the default fault campaign for 64 ranks,
// a fresh campaign seed each time: what every point of the fault sweeps
// does before its world exists.
func planCompile(seed int64, scale float64) sample {
	n := scaled(12_000, scale)
	stripes := netmodel.LustreLike().Stripes
	spec := faults.DefaultSpec()
	events := 0
	t0 := time.Now()
	for i := 0; i < n; i++ {
		spec.Seed = seed + int64(i)
		plan := spec.Plan(64, stripes)
		_, err := plan.Compile(64, stripes)
		must(err)
		events += len(plan.Events)
	}
	el := time.Since(t0)
	if events == 0 {
		panic("faults: the default campaign planned no events")
	}
	return sample{ops: n, elapsed: el}
}

func faultsDrivers() []driver {
	return []driver{{"faults.plan_compile_us", "us", planCompile}}
}
