package main

import "strings"

// workload is one set of CLI invocations the benchmark times. Everything a
// workload varies is a command-line flag of cmd/decouplebench: the flags are
// the one surface of the program that the roadmap's deletions (goroutine
// twins, legacy wake, the Cores and Fibers option fields) leave alone.
type workload struct {
	name string
	why  string
	// experiments are the registry names run in one invocation, in order.
	experiments []string
	// scale and floor are the size flags of a timed invocation and of the
	// same experiments at their fixed-cost floor (setup_s).
	scale, floor []string
	// extra flags beyond size; only `sharded` has any.
	extra []string
}

// common ends every invocation: one sweep worker pins the Go runtime to one
// core, which is the only repeatable configuration on a shared 2-core box.
var common = []string{"-workers", "1", "-quiet"}

func (w workload) args(size []string, exps ...string) []string {
	if len(exps) == 0 {
		exps = w.experiments
	}
	a := []string{"-experiment", strings.Join(exps, ",")}
	a = append(a, size...)
	a = append(a, w.extra...)
	return append(a, common...)
}

var (
	figureFloor = []string{"-max-procs", "32", "-runs", "1"}
	figures     = []string{"fig5", "fig6", "fig7", "fig8"}
)

// workloads is the benchmark's fixed set. BENCHMARK.json repeats the names
// and reasons; TestContractInSync keeps the two together.
var workloads = []workload{
	{
		name:        "figures",
		why:         "fig5-fig8 to 256 procs, cache-resident: engine dispatch, fiber resume, mpi match/wake and stream do nearly all the work",
		experiments: figures,
		scale:       []string{"-max-procs", "256", "-runs", "1"},
		floor:       figureFloor,
	},
	{
		name:        "large",
		why:         "fig5 and fig8 to 1024 procs: event heap, match index and P-sized allgatherv bundles beyond cache, where figures predicts no change",
		experiments: []string{"fig5", "fig8"},
		scale:       []string{"-max-procs", "1024", "-runs", "1"},
		floor:       figureFloor,
	},
	{
		name:        "sharded",
		why:         "figures under -cores 2 on one pinned core: window barrier, cross-shard Post and two-phase PostReserve overhead, not speed-up",
		experiments: figures,
		scale:       []string{"-max-procs", "256", "-runs", "1"},
		floor:       figureFloor,
		extra:       []string{"-cores", "2"},
	},
	{
		name:        "cosched",
		why:         "thousands of short 16-rank worlds on a shared bank under five policies: world construction, pool reuse, cluster.Run, Bank gap lists",
		experiments: []string{"cosched"},
		scale:       []string{"-runs", "48"},
		floor:       []string{"-runs", "1"},
	},
	{
		name:        "faulted",
		why:         "resilience, recovery and lossy sweeps: the only workload running fault planning, kill/respawn/Rebuild and ack/retransmit",
		experiments: []string{"resilience", "recovery", "lossy"},
		scale:       []string{"-runs", "8"},
		floor:       []string{"-runs", "1"},
	},
}

// experimentLayer names the layer each experiment stands for in the traced
// pass, after the application it really runs (internal/experiments/figures.go;
// `decouplebench -list` describes fig5-fig8 with the wrong apps).
var experimentLayer = map[string]string{
	"fig5":       "apps.mapreduce",
	"fig6":       "apps.cg",
	"fig7":       "apps.ipic3d.comm",
	"fig8":       "apps.ipic3d.io",
	"cosched":    "cluster",
	"resilience": "faults.degraded",
	"recovery":   "faults.crash",
	"lossy":      "faults.lossy",
}

// layerOrder fixes the order the experiment layers are reported in.
var layerOrder = []string{"fig5", "fig6", "fig7", "fig8", "cosched", "resilience", "recovery", "lossy"}

// metricDef is one line of the benchmark contract.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// endToEnd are the metrics a user of the CLI sees, per workload. bound is
// the share of the parent's median by which a metric may worsen. Process
// wall-clock on the shared 2-core host drifts by 10 to 20% over minutes, and
// a bound has to be three times the run-to-run spread to tell a regression
// from the host, hence 25%; a claimed gain is judged on alternating pairs
// instead (README.md).
var endToEnd = []metricDef{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "sim_speedup", Unit: "ratio", Better: "higher", Bound: 0.01},
}

// driverMetrics are the names bench/layers reports, in its order.
var driverMetrics = []metricDef{
	{Name: "sim.engine.heap_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.engine.heap_deep_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.engine.ring_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.fiber.switch_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.fiber.advance_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.bank.reserve_fcfs_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.bank.reserve_fair_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.bank.reserve_fairwc_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.bank.reserve_faulted_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.shardgroup.window_empty_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.shardgroup.window_post_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.shardgroup.post_ns", Unit: "ns", Better: "lower"},
	{Name: "mpi.p2p.pingpong_ns", Unit: "ns", Better: "lower"},
	{Name: "mpi.p2p.pingpong_allocs", Unit: "count", Better: "lower"},
	{Name: "mpi.p2p.fanin_ns", Unit: "ns", Better: "lower"},
	{Name: "mpi.p2p.unexpected_ns", Unit: "ns", Better: "lower"},
	{Name: "mpi.p2p.halo_ns", Unit: "ns", Better: "lower"},
	{Name: "mpi.coll.allreduce_ns", Unit: "ns", Better: "lower"},
	{Name: "mpi.coll.allgatherv_ns", Unit: "ns", Better: "lower"},
	{Name: "mpi.coll.allgatherv_kb", Unit: "kB", Better: "lower"},
	{Name: "mpi.io.writeshared_ns", Unit: "ns", Better: "lower"},
	{Name: "mpi.io.writeall_ns", Unit: "ns", Better: "lower"},
	{Name: "mpi.world.cycle_us", Unit: "us", Better: "lower"},
	{Name: "mpi.reliable.loss0_ns", Unit: "ns", Better: "lower"},
	{Name: "mpi.reliable.loss5_ns", Unit: "ns", Better: "lower"},
	{Name: "mpi.reliable.loss5_retransmits", Unit: "count", Better: "lower"},
	{Name: "stream.element_ns", Unit: "ns", Better: "lower"},
	{Name: "stream.element_allocs", Unit: "count", Better: "lower"},
	{Name: "faults.plan_compile_us", Unit: "us", Better: "lower"},
}

// perLayer is every metric of a traced run: the traced pass of the
// workload's own experiments (zero for the experiments it does not run),
// the share of its wall-clock the engine drivers predict, then the drivers.
func perLayer() []metricDef {
	defs := []metricDef{
		{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
		{Name: "engine.events", Unit: "count", Better: "lower"},
		{Name: "engine.events_per_s", Unit: "1/s", Better: "higher"},
		{Name: "cmd.decouplebench.overhead_ms", Unit: "ms", Better: "lower"},
		{Name: "host.cpu_s", Unit: "s", Better: "lower"},
		{Name: "host.peak_rss_mb", Unit: "MB", Better: "lower"},
	}
	for _, exp := range layerOrder {
		l := experimentLayer[exp]
		defs = append(defs,
			metricDef{Name: l + ".wall_s", Unit: "s", Better: "lower"},
			metricDef{Name: l + ".events", Unit: "count", Better: "lower"},
			metricDef{Name: l + ".ns_per_event", Unit: "ns", Better: "lower"})
	}
	defs = append(defs,
		metricDef{Name: "model.engine_heap_pct", Unit: "%", Better: "higher"},
		metricDef{Name: "model.engine_heap_deep_pct", Unit: "%", Better: "higher"})
	return append(defs, driverMetrics...)
}

// runSeconds is the measuring time the contract gives each run.
const runSeconds = 20

// contract is the content of BENCHMARK.json at the root of the repository.
type contract struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadLine `json:"workloads"`
	EndToEnd   []metricDef    `json:"end_to_end"`
	PerLayer   []metricDef    `json:"per_layer"`
}

type workloadLine struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func benchmarkContract() contract {
	c := contract{
		Command:    []string{"go", "run", "-C", "bench", "repro/bench"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer(),
	}
	for _, w := range workloads {
		c.Workloads = append(c.Workloads, workloadLine{w.name, w.why})
	}
	return c
}
