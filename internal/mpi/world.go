// Package mpi implements an MPI-like message-passing runtime on top of the
// discrete-event simulator in internal/sim.
//
// The package exists because the paper's proof-of-concept (MPIStream) is
// built atop MPI on a Cray XC40, and Go has no MPI ecosystem. Ranks are
// simulated processes; point-to-point messages follow the LogGP-style cost
// model in internal/netmodel, with per-endpoint NIC serialization so that
// congestion at hot receivers emerges naturally. Collectives are
// implemented with the standard distributed algorithms (binomial trees,
// recursive doubling, rings, pairwise exchange) over the point-to-point
// layer, so their cost — and its growth with the number of processes —
// emerges from message costs rather than being asserted.
//
// Messages carry real payloads, which makes the algorithms testable for
// correctness, not only for cost: the CG solver in internal/apps/cg
// converges through this runtime.
package mpi

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/netmodel"
	"repro/internal/sim"
)

// Reserved tag space: tags at or above collTagBase are used internally by
// collective operations; application code must use smaller tags.
const collTagBase = 1 << 24

// AnySource and AnyTag are wildcards for Recv matching.
const (
	AnySource = -1
	AnyTag    = -1
)

// Tracer receives execution spans (compute, communication wait, I/O) from
// the runtime. internal/trace provides an implementation; the interface
// lives here so the runtime does not depend on the trace package.
//
// Tracing observes the one execution path: spans are emitted by the
// F-prefixed continuation forms, which the blocking forms run, behind a
// nil check that costs nothing (and allocates nothing) when no tracer is
// set.
type Tracer interface {
	Span(rank int, category, label string, start, end sim.Time)
}

// Config describes a simulated machine and job.
type Config struct {
	// Procs is the total number of MPI processes (world size).
	Procs int
	// FS is the file-system cost model. Zero value is replaced by
	// netmodel.LustreLike.
	FS netmodel.FSParams
	// Noise perturbs compute operations. The zero value perturbs nothing.
	Noise netmodel.Noise
	// Seed drives every random stream in the simulation.
	Seed int64
	// Tracer, if non-nil, receives execution spans.
	Tracer Tracer

	// RankFaults schedules compute slowdown bursts: RankFaults[i] holds
	// rank i's windows (sorted and non-overlapping per
	// sim.ValidateWindows), applied multiplicatively on top of the noise
	// model's speed factor and jitter by the compute-cost path. Ranks at or
	// beyond len(RankFaults) are fault-free; nil schedules nothing.
	RankFaults [][]sim.FaultWindow
	// StripeFaults schedules degradation windows on the world's private
	// file-system bank: StripeFaults[i] holds stripe i's outage/derate
	// windows (sim.ValidateStripeFaults). It is incompatible with a
	// shared Bank — the bank's owner (internal/cluster) installs faults
	// there — and panics when both are set.
	StripeFaults [][]sim.StripeFault
	// LinkFaults schedules windowed network degradation (latency and
	// bandwidth multipliers) applied to message cost. Nil means a
	// healthy network.
	LinkFaults *netmodel.LinkFaults
	// Crashes schedules crash-stop rank failures: each event kills rank
	// Target's body at virtual time At and respawns it Restart later (see
	// failure.go for the failure and recovery semantics). Events must be
	// sorted by (At, Target) — internal/faults compiles them that way —
	// so kill order is deterministic. Nil schedules nothing and leaves
	// trajectories byte-identical to a crash-free build.
	Crashes []sim.CrashEvent
	// MsgFaults makes the fabric lose or duplicate individual message
	// transmissions and arms the reliable-delivery protocol (sequence
	// numbers, acks, virtual-time retransmission timers — see
	// reliable.go). Nil means a lossless fabric with the protocol
	// disarmed, byte-identical to a build without it. Message-fault
	// campaigns are incompatible with the sharded parallel mode
	// (Shards >= 1).
	MsgFaults *netmodel.MsgFaults

	// Engine, if non-nil, attaches the world to an existing engine instead
	// of owning one: several worlds (jobs) spawned on the same engine run
	// as one co-scheduled simulation (see internal/cluster). The engine's
	// owner is responsible for resetting and running it; worlds with a
	// shared engine must be started with Start/StartFibers, not Run.
	Engine *sim.Engine
	// Bank, if non-nil, is a shared striped file-system bank: all of this
	// world's I/O reserves stripe time on it under the bank's inter-job
	// policy, contending with every other attached world. Nil means a
	// private single-job FCFS bank of FS.Stripes links (the historical
	// behavior, byte-identical trajectories).
	//
	// A world attached to a shared bank also signals its I/O demand to
	// it: every file operation (File.WriteAt/WriteShared/WriteAll and the
	// fiber forms) is bracketed with Bank.IOBegin/IOEnd, so the bank's
	// work-conserving policy can re-split idle jobs' entitlement over
	// the jobs that currently have queued writes. The signalling is pure
	// bookkeeping — no events, no clock movement — so the static policies
	// (fcfs, fair) produce byte-identical trajectories whether
	// or not the hooks fire.
	Bank *sim.Bank
	// Job is this world's job index within a shared Bank (ignored for a
	// private bank, which has exactly one job).
	Job int
	// Name, if non-empty, prefixes rank names ("jobA/rank3") so that
	// deadlock reports and traces identify the world in multi-world runs.
	Name string

	// Shards, when >= 1, runs the world in the conservative parallel mode:
	// ranks are partitioned across Shards engines (sim.ShardGroup) that
	// execute lookahead-bounded windows concurrently, with cross-rank
	// deliveries carrying canonical partition-independent priorities so
	// trajectories are byte-identical for every shard count and placement
	// (see the "Parallel mode" section of the sim package comment). The
	// lookahead is the network's minimum link latency, derated by any
	// latency-shrinking LinkFaults window. Sharded worlds are incompatible
	// with a shared Engine or Bank, with tracing and with crash campaigns,
	// and are never pooled. One shard is the same trajectory family run as
	// one window; 0 means the classic single-engine mode.
	Shards int
	// Place maps a rank to its shard in [0, Shards); nil means contiguous
	// blocks (rank*Shards/Procs). Trajectories do not depend on the
	// placement — only wall-clock balance does. Ranks sharing simulated
	// files must share a shard (File.Open enforces this).
	Place func(rank int) int
}

// fabric is the network cost model of every world: a Cray Aries-like NIC
// (netmodel.AriesLike).
var fabric = netmodel.AriesLike()

func (c Config) withDefaults() Config {
	if c.FS == (netmodel.FSParams{}) {
		c.FS = netmodel.LustreLike()
	}
	if c.Bank == nil {
		c.Job = 0 // a private bank has exactly one job
	}
	return c
}

// Validate reports the first input error of c, naming the field: a
// non-positive world size, a file-system model, fault schedule or job
// index that does not validate, a fault aimed at a rank or stripe the
// world lacks, and features that cannot run together. A feature the
// parallel mode (Shards >= 1) cannot run is refused with
// *CannotShardError. Zero fields take their defaults first, as in
// NewWorld, which panics with this error.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.Procs <= 0 {
		return fmt.Errorf("mpi: Procs %d is not a positive world size", c.Procs)
	}
	if c.Procs > math.MaxInt32 {
		// A message carries its sender's comm rank in 32 bits.
		return fmt.Errorf("mpi: Procs %d exceeds the int32 rank range (at most %d)", c.Procs, math.MaxInt32)
	}
	if err := c.FS.Validate(); err != nil {
		return fmt.Errorf("mpi: FS: %w", err)
	}
	if c.Bank != nil {
		if c.Job < 0 || c.Job >= c.Bank.Jobs() {
			return fmt.Errorf("mpi: Job %d outside shared Bank's %d jobs", c.Job, c.Bank.Jobs())
		}
		if c.Engine == nil {
			// A shared bank orders reservations by the shared engine's
			// clock; feeding it from worlds with private engines would
			// rewind its reservation instants between runs.
			return errors.New("mpi: a shared Bank requires a shared Engine")
		}
		if c.StripeFaults != nil {
			return errors.New("mpi: StripeFaults on a world with a shared Bank; install faults on the bank via its owner")
		}
	}
	for i, ws := range c.RankFaults {
		if err := sim.ValidateWindows(ws); err != nil {
			return fmt.Errorf("mpi: RankFaults[%d]: %w", i, err)
		}
		if len(ws) > 0 && i >= c.Procs {
			return fmt.Errorf("mpi: RankFaults[%d] targets rank %d of %d", i, i, c.Procs)
		}
	}
	for i, fs := range c.StripeFaults {
		if err := sim.ValidateStripeFaults(fs); err != nil {
			return fmt.Errorf("mpi: StripeFaults[%d]: %w", i, err)
		}
		if len(fs) > 0 && i >= c.FS.Stripes {
			return fmt.Errorf("mpi: StripeFaults[%d] targets stripe %d of %d", i, i, c.FS.Stripes)
		}
	}
	if err := c.LinkFaults.Validate(); err != nil {
		return fmt.Errorf("mpi: LinkFaults: %w", err)
	}
	for i, ce := range c.Crashes {
		if ce.Target < 0 || ce.Target >= c.Procs {
			return fmt.Errorf("mpi: Crashes[%d] targets rank %d of %d", i, ce.Target, c.Procs)
		}
		if ce.At < 0 || ce.Restart < 0 {
			return fmt.Errorf("mpi: Crashes[%d] has negative time (at %v, restart %v)", i, ce.At, ce.Restart)
		}
	}
	if c.MsgFaults != nil {
		if err := c.MsgFaults.Validate(); err != nil {
			return fmt.Errorf("mpi: MsgFaults: %w", err)
		}
	}
	if c.Shards < 1 {
		return nil
	}
	// The parallel mode partitions per-rank state across concurrently
	// executing shard engines; the features below all assume one engine
	// (a shared clock, a global kill/rebuild rendezvous, an ordered trace
	// stream, the reliable protocol's engine-local acks and timers).
	switch {
	case c.Engine != nil: // a shared Bank has required one above
		return errors.New("mpi: Shards with a shared Engine or Bank; a sharded world owns both")
	case c.Tracer != nil:
		return cannotShard("tracing", "-cores")
	case len(c.Crashes) > 0:
		return cannotShard("crash campaigns", "-cores")
	case c.MsgFaults != nil:
		return cannotShard("message-fault campaigns", "-cores")
	}
	return nil
}

// lookahead computes the parallel mode's conservative window bound: a
// lower bound on the wire latency of every cross-rank delivery. The
// base latency is that bound — serialization and overheads only add to
// it — derated by the smallest latency-shrinking LinkFaults factor,
// computed with the same float arithmetic StretchLatency applies so the
// bound is never optimistic.
func (c Config) lookahead() sim.Time {
	la := fabric.Latency
	if c.LinkFaults != nil {
		for _, w := range c.LinkFaults.Latency {
			if w.Factor < 1 {
				if cand := sim.Time(float64(fabric.Latency) * w.Factor); cand < la {
					la = cand
				}
			}
		}
	}
	if la <= 0 {
		panic(fmt.Sprintf("mpi: Shards >= 1 needs a positive minimum link latency for lookahead, got %v", la))
	}
	return la
}

// placeOf resolves a rank's shard: Config.Place if set (validated), else
// contiguous blocks.
func (c Config) placeOf(rank int) int {
	if c.Place != nil {
		s := c.Place(rank)
		if s < 0 || s >= c.Shards {
			panic(fmt.Sprintf("mpi: Place(%d) = %d outside [0, %d)", rank, s, c.Shards))
		}
		return s
	}
	return rank * c.Shards / c.Procs
}

// World is one simulated job: an engine, a set of ranks and the shared
// network and file-system state.
type World struct {
	cfg    Config
	eng    *sim.Engine
	ranks  []*rankState
	world  *Comm
	comms  int // next communicator id
	splits map[string]*splitState
	opens  map[string]*openState
	files  map[string]*File
	fs     *sim.Bank
	stash  map[string]interface{}

	// gathers holds the shared result of every allgatherv in progress
	// (coll.go), keyed by communicator and collective tag.
	gathers map[gatherKey]*gatherState

	// signalDemand marks a world whose file operations bracket themselves
	// with the bank's IOBegin/IOEnd demand hooks: set exactly when the
	// bank is shared (cfg.Bank != nil) — a private single-job bank has no
	// contenders to redistribute entitlement between.
	signalDemand bool

	// Conservative parallel mode (Config.Shards >= 1): the shard group
	// whose engines host the ranks, and one pool set per shard so
	// concurrently executing shards never share freelists. Both are nil in
	// classic mode, where every rank's pool pointer aims at the embedded
	// pools below.
	group      *sim.ShardGroup
	shardPools []pools
	// ioShard is the single shard allowed to touch the file-system bank in
	// parallel mode (-1 until the first Open): stripe reservations and
	// shared-pointer tokens are engine-local state, so every file-using
	// rank must be co-located (checkIOShard).
	ioShard int
	// mu guards the world-global registries (splits, gathers, opens, files,
	// stash, communicator ids) that rank code on concurrently executing
	// shards may touch at once. Registry contents stay deterministic —
	// entries are keyed, and orderings that reach the trajectory are
	// re-sorted by the consumers (splitRegister) — so the lock only
	// serializes map access, it never decides an outcome. Uncontended in
	// classic mode.
	mu sync.Mutex

	// pools is the classic mode's freelist set, embedded so existing
	// w.msgFree-style accesses keep working; sharded worlds use one pools
	// value per shard instead (shardPools).
	pools

	// Crash-stop failure state (failure.go). epoch counts world
	// revocations: it bumps on every kill and stamps outgoing messages,
	// so traffic from a pre-crash attempt is dropped at delivery instead
	// of matching post-rebuild receives. revoked holds from a kill until
	// the rebuild rendezvous completes; while set, every newly posted
	// send or receive completes immediately with failure. mainFiber
	// retains the rank body so restartRank can respawn the victim;
	// allComms tracks every communicator ever built on the world so
	// completeRebuild can zero their collective tag counters.
	revoked        bool
	epoch          uint16
	failure        failureError
	rebuildArrived int
	rebuildQ       sim.WaitQueue
	mainFiber      FiberMain
	allComms       []*Comm
	prScratch      []*postedRecv // killRank's posted-receive sweep scratch
}

// ioBegin signals the start of one of rs's file operations to a shared
// bank: the world's job has queued I/O demand until the matching ioEnd.
// On worlds with a private bank the bank hook is a no-op. Pure
// bookkeeping — the hooks schedule no events and move no clocks, so
// firing them never perturbs a trajectory; only the bank's
// work-conserving policy reads the signal. The per-rank depth counter
// lets failure handling close intervals a crash left open (drainIO).
func (w *World) ioBegin(rs *rankState) {
	rs.ioDepth++
	if !w.signalDemand {
		return
	}
	w.fs.IOBegin(w.cfg.Job, rs.eng.Now())
}

// ioEnd closes the demand interval opened by the matching ioBegin.
func (w *World) ioEnd(rs *rankState) {
	rs.ioDepth--
	if !w.signalDemand {
		return
	}
	w.fs.IOEnd(w.cfg.Job, rs.eng.Now())
}

// pools is one shard's set of freelists for matching-path, wait-state and
// collective-state objects (simulation code is single-threaded per shard,
// so plain slices suffice). Classic worlds have exactly one, embedded in
// World; sharded worlds keep one per shard so concurrent windows never
// contend. Messages matched straight against a posted receive and popped
// posted receives recycle here at once; a message that entered the
// unexpected queue recycles when the last matching-index list lets go of
// it (dropRef). Requests recycle when a wait consumes them (see the
// contract on Request). What a warm pool does not cover is listed in
// DESIGN.md ("Continuations and message lifetime"): the closures a caller
// builds for its own continuations, payloads boxed into Data, requests
// only ever completed by Test, and whatever a run leaves queued at its end.
type pools struct {
	msgFree []*message
	prFree  []*postedRecv
	reqFree []*Request

	// Freelists for the fiber wait-state and collective-state structs
	// (fiber.go): the hoisted closure environments of the continuation
	// primitives, recycled so steady-state fiber waits and collectives
	// allocate nothing.
	fwFree    []*fwait
	fwAllFree []*fwaitAll
	fwAnyFree []*fwaitAny
	fcFree    []*fcoll
	fioFree   []*fwrite // file writes (fiber_io.go)

	ackFree []*relAck // reliable-delivery acks (reliable.go)
}

// newMessage returns a recycled or fresh message. Callers must set all
// matching fields.
func (pl *pools) newMessage() *message {
	if n := len(pl.msgFree); n > 0 {
		m := pl.msgFree[n-1]
		pl.msgFree = pl.msgFree[:n-1]
		return m
	}
	return &message{}
}

// dropRef records that one list of a matching index let go of m, and
// recycles the message when it was the last.
func (pl *pools) dropRef(m *message) {
	if m.held--; m.held == 0 {
		pl.freeMessage(m)
	}
}

// freeMessage recycles a message that no queue references.
func (pl *pools) freeMessage(m *message) {
	m.data = nil
	m.consumed = false
	m.rel = nil
	pl.msgFree = append(pl.msgFree, m)
}

// newRequest returns a recycled or fresh zeroed request.
func (pl *pools) newRequest() *Request {
	if n := len(pl.reqFree); n > 0 {
		q := pl.reqFree[n-1]
		pl.reqFree = pl.reqFree[:n-1]
		q.freed = false
		return q
	}
	return &Request{}
}

// freeRequest recycles a request whose completion has been consumed by a
// wait. Callers must have copied the status out first. The pooled request
// is poisoned (freed flag) so stale handles fail loudly.
func (pl *pools) freeRequest(q *Request) {
	*q = Request{freed: true}
	pl.reqFree = append(pl.reqFree, q)
}

// newPostedRecv returns a recycled or fresh posted-receive entry.
func (pl *pools) newPostedRecv() *postedRecv {
	if n := len(pl.prFree); n > 0 {
		p := pl.prFree[n-1]
		pl.prFree = pl.prFree[:n-1]
		return p
	}
	return &postedRecv{}
}

// freePostedRecv recycles a posted-receive entry popped from its bucket.
func (pl *pools) freePostedRecv(p *postedRecv) {
	p.req = nil
	pl.prFree = append(pl.prFree, p)
}

// rankState is the per-rank runtime state shared by the rank's body and
// any helper processes (nonblocking collectives) of that rank.
type rankState struct {
	world *World
	rank  int
	// eng is the engine hosting this rank: the world engine in classic
	// mode, the rank's shard engine in parallel mode. Every per-rank
	// scheduling and clock read goes through it.
	eng *sim.Engine
	// pool is the freelist set of the rank's shard (the world's embedded
	// pools in classic mode).
	pool *pools
	// sendSeq counts this rank's cross-rank sends, in rank program order.
	// In parallel mode it forms the partition-independent delivery
	// priority (deliveryPri); unused in classic mode.
	sendSeq uint64
	// shard is the rank's shard index in parallel mode (0 in classic).
	shard    int
	fib      *sim.Fiber // the fiber of the rank's body
	sendLink sim.Link
	recvLink sim.Link
	match    matchIndex // posted receives + unexpected messages (match.go)
	speed    float64
	// faults holds this rank's compute slowdown windows
	// (Config.RankFaults), nil when the rank is fault-free.
	faults []sim.FaultWindow

	msgsSent int64

	// statuses is the rank-owned scratch backing for WaitAll results,
	// reused across calls so the collective hot path allocates nothing.
	statuses []Status

	// Crash-stop failure state (failure.go): dead marks a killed rank
	// awaiting restart, incarnation counts restarts, inRebuild marks a
	// rank parked in the rebuild rendezvous, ioDepth counts open
	// ioBegin/ioEnd demand intervals, and failStep is the failure
	// continuation: registered by FProtect, or for a blocking body the
	// step that unwinds it into Protect.
	dead        bool
	incarnation int
	inRebuild   bool
	ioDepth     int
	failStep    sim.StepFunc

	// Reliable-delivery state (reliable.go), touched only when
	// Config.MsgFaults arms the protocol: relNextSeq assigns per-
	// destination send sequence numbers and relIn holds the per-source
	// reorder buffers, both indexed by world rank and built on first use;
	// relUnacked counts the in-flight entries not yet acked, retransmits
	// the timer-driven re-sends, and drainQ parks this rank's body in
	// WaitSendWindow until relUnacked drains to drainTarget.
	relNextSeq  []uint64
	relIn       []relRecvBuf
	relUnacked  int
	retransmits int64
	drainQ      sim.WaitQueue
	drainTarget int
}

// statusScratch returns a length-n status slice backed by the rank's
// reusable scratch array.
func (rs *rankState) statusScratch(n int) []Status {
	if cap(rs.statuses) < n {
		rs.statuses = make([]Status, n)
	}
	s := rs.statuses[:n]
	for i := range s {
		s[i] = Status{}
	}
	return s
}

// reset returns the rank state to its initial condition for world reuse,
// keeping matching-index and scratch capacity.
func (rs *rankState) reset(speed float64) {
	rs.fib = nil
	rs.sendSeq = 0
	rs.sendLink = sim.Link{}
	rs.recvLink = sim.Link{}
	rs.match.reset()
	rs.speed = speed
	rs.msgsSent = 0
	rs.dead = false
	rs.incarnation = 0
	rs.inRebuild = false
	rs.ioDepth = 0
	rs.failStep = nil
	clear(rs.relNextSeq)
	clear(rs.relIn)
	rs.relUnacked = 0
	rs.retransmits = 0
	rs.drainQ = sim.WaitQueue{}
	rs.drainTarget = 0
}

// deliveryPri returns the canonical priority for this rank's next
// cross-rank delivery in parallel mode: the sending rank and its send
// counter, both functions of the simulated program alone, so same-instant
// delivery order at the receiver never depends on shard placement. The
// shift leaves room for 2^40 sends per rank before neighbouring ranks' key
// ranges could touch.
func (rs *rankState) deliveryPri() uint64 {
	pri := (uint64(rs.rank)+1)<<40 | rs.sendSeq
	rs.sendSeq++
	return pri
}

// CannotShardError reports a feature that only runs in the classic
// single-engine mode: a run asking for both the conservative parallel
// mode and the feature is refused with this error rather than silently
// dropping either. Every classic-only rejection — crash campaigns,
// message-fault campaigns, tracing — uses this one type, returned by
// Config.Validate and the app layer (NewWorld panics with it), so the
// message always names the feature and the flag to drop.
type CannotShardError struct {
	// Feature names the classic-only feature, e.g. "crash campaigns".
	Feature string
	// Flag is the flag whose removal resolves the conflict, e.g.
	// "-cores" (the feature usually being the deliberate half of the
	// request).
	Flag string
}

func (e *CannotShardError) Error() string {
	return fmt.Sprintf("%s cannot run in the conservative parallel mode; drop %s for this run", e.Feature, e.Flag)
}

// cannotShard builds the unified classic-only rejection.
func cannotShard(feature, flag string) *CannotShardError {
	return &CannotShardError{Feature: feature, Flag: flag}
}

// worldPool recycles released worlds so that sweeps reuse event-queue,
// matching-index and message-pool capacity across points instead of
// reallocating per simulation. sync.Pool handles cross-goroutine reuse;
// a reset world is behaviourally identical to a fresh one.
//
// sharedWorldPool does the same for worlds attached to a shared engine
// (Config.Engine), which a co-scheduling sweep builds by the thousand.
// They circulate apart from the worlds that own their engine: one of
// those adopted into a cluster would throw its warm engine away, and one
// of these has no engine to run alone on.
var worldPool, sharedWorldPool sync.Pool

// poolFor picks the pool a classic world of this configuration circulates
// through.
func poolFor(cfg Config) *sync.Pool {
	if cfg.Engine != nil {
		return &sharedWorldPool
	}
	return &worldPool
}

// NewWorld builds a world with cfg.Procs ranks (recycling a released world
// when one is available). Run starts them.
func NewWorld(cfg Config) *World {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	cfg = cfg.withDefaults()
	sharded := cfg.Shards >= 1
	// Sharded worlds are built fresh and never pooled: a pooled world's
	// ranks, matchers and freelists are laid out for one engine.
	var w *World
	if !sharded {
		w, _ = poolFor(cfg).Get().(*World)
	}
	if w == nil {
		w = &World{
			splits:  make(map[string]*splitState),
			gathers: make(map[gatherKey]*gatherState),
			opens:   make(map[string]*openState),
			files:   make(map[string]*File),
			stash:   make(map[string]interface{}),
		}
	}
	if sharded {
		w.group = sim.NewShardGroup(cfg.Seed, cfg.Shards, cfg.lookahead())
		w.shardPools = make([]pools, cfg.Shards)
		for i := 0; i < cfg.Shards; i++ {
			// Ranks take their world rank as process id (SpawnFiberID); helper
			// processes draw automatic ids from a per-shard base far above
			// any rank id, so the two ranges never collide whatever the
			// placement. Helper ids are placement-dependent, which is
			// harmless: helpers never draw from their id-seeded random
			// streams.
			w.group.Shard(i).SetIDBase(1<<30 + i<<20)
		}
	}
	w.reset(cfg)
	return w
}

// applyStripeFaults installs cfg.StripeFaults on the world's private
// bank. Faults are per-run state (Bank.Reset drops them), so reset
// applies them to every bank, fresh or reused. NewWorld has refused
// windows on stripes beyond the bank width; empty entries there are
// skipped.
func (w *World) applyStripeFaults() {
	for i, fs := range w.cfg.StripeFaults {
		if i < w.fs.Width() {
			w.fs.SetStripeFaults(i, fs)
		}
	}
}

// buildRanks (re)creates the rank array and world communicator for the
// current configuration: each rank's rankState, taken from the slice
// where it already holds one and built empty where not, is reset.
func (w *World) buildRanks() {
	cfg := w.cfg
	if cap(w.ranks) >= cfg.Procs {
		w.ranks = w.ranks[:cfg.Procs]
	} else {
		w.ranks = make([]*rankState, cfg.Procs)
	}
	members := make([]int, cfg.Procs)
	for i := range w.ranks {
		rs := w.ranks[i]
		if rs == nil {
			rs = &rankState{}
			w.ranks[i] = rs
		}
		rs.world = w
		rs.rank = i
		rs.reset(cfg.Noise.SpeedFactor(cfg.Seed, i))
		if w.group != nil {
			rs.shard = cfg.placeOf(i)
			rs.eng = w.group.Shard(rs.shard)
			rs.pool = &w.shardPools[rs.shard]
		} else {
			rs.shard = 0
			rs.eng = w.eng
			rs.pool = &w.pools
		}
		rs.match.pool = rs.pool
		rs.faults = nil
		if i < len(cfg.RankFaults) {
			rs.faults = cfg.RankFaults[i]
		}
		members[i] = i
	}
	w.world = newComm(w, members, nil)
}

// reset initializes a world for cfg, fresh from NewWorld or recycled
// from the pool. A recycled world keeps its ranks, matching-index and
// freelist capacity and, for a world that owns them, its engine and bank;
// a fresh one gets its engine (unless it is sharded: its shard group
// hosts the ranks) and its bank here. A shared engine or bank is adopted
// as it is: its owner resets it, and other worlds may already be
// attached.
func (w *World) reset(cfg Config) {
	w.cfg = cfg
	w.signalDemand = cfg.Bank != nil
	w.ioShard = -1
	switch {
	case cfg.Engine != nil:
		w.eng = cfg.Engine
	case w.eng != nil:
		w.eng.Reset(cfg.Seed)
	case w.group == nil:
		w.eng = sim.NewEngine(cfg.Seed)
	}
	w.comms = 0
	clear(w.splits)
	clear(w.gathers)
	clear(w.opens)
	clear(w.files)
	clear(w.stash)
	w.revoked = false
	w.epoch = 0
	w.failure = nil
	w.rebuildArrived = 0
	w.rebuildQ = sim.WaitQueue{}
	w.mainFiber = nil
	for i := range w.allComms {
		w.allComms[i] = nil
	}
	w.allComms = w.allComms[:0]
	switch {
	case cfg.Bank != nil:
		w.fs = cfg.Bank
	case w.fs != nil && w.fs.Width() == cfg.FS.Stripes:
		w.fs.Reset()
	default:
		w.fs = sim.NewBank(cfg.FS.Stripes, 1, sim.BankFCFS)
	}
	w.applyStripeFaults()
	w.buildRanks()
}

// Release returns the world to the process-wide pool for reuse by a later
// NewWorld. Only call it after its run (Run, or the shared engine's)
// returned cleanly, and do not touch the world (or any Rank, Comm or
// Request derived from it) afterwards. Sweeps that release worlds between
// points cut per-point allocation churn to near zero; forgetting to
// release is safe, just slower. Releasing a sharded world does nothing.
func (w *World) Release() {
	if w.group != nil {
		return
	}
	pool := poolFor(w.cfg)
	if w.cfg.Engine != nil {
		// Let go of what belongs to the cluster: the next NewWorld brings
		// its own.
		w.eng = nil
		if w.cfg.Bank != nil {
			w.fs = nil
		}
		w.cfg = Config{}
	}
	pool.Put(w)
}

// nextCommID returns a fresh communicator context id. A message carries
// its context in 32 bits, so a world that builds more communicators than
// that panics instead of reusing an id.
func (w *World) nextCommID() int {
	if w.comms == math.MaxInt32 {
		panic(tooManyComms)
	}
	w.comms++
	return w.comms
}

// tooManyComms is nextCommID's panic message.
var tooManyComms = fmt.Sprintf("mpi: more than %d communicators on one world, the most a message's int32 context id holds", math.MaxInt32)

// checkIOShard enforces the parallel-mode file-system constraint: every
// rank that opens simulated files must live on one shard, because the
// stripe bank and the shared-pointer tokens are engine-local state. The
// first Open fixes the I/O shard; later opens from another shard panic
// with placement advice instead of racing.
func (w *World) checkIOShard(c *Comm) {
	if w.group == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, wr := range c.members {
		s := w.ranks[wr].shard
		if w.ioShard == -1 {
			w.ioShard = s
		}
		if s != w.ioShard {
			panic(fmt.Sprintf("mpi: parallel mode needs every file-I/O rank on one shard: rank %d is on shard %d but the I/O shard is %d (adjust Config.Place)", wr, s, w.ioShard))
		}
	}
}

// MessagesSent reports the total number of point-to-point messages.
func (w *World) MessagesSent() int64 {
	var total int64
	for _, rs := range w.ranks {
		total += rs.msgsSent
	}
	return total
}

// rankName labels a rank's process for deadlock reports and traces,
// prefixed with the world name in multi-world runs ("jobA/rank3").
func (w *World) rankName(rank int) string {
	if w.cfg.Name != "" {
		return fmt.Sprintf("%s/rank%d", w.cfg.Name, rank)
	}
	return fmt.Sprintf("rank%d", rank)
}

// Start spawns one process per rank executing main without running the
// engine. Worlds sharing an engine are all started first, then the owner
// runs the engine once; single-world callers use Run, which is
// Start-then-run.
//
// main is ordinary blocking code: each rank is a fiber like any other,
// hosting a goroutine for main to block on (sim.Proc), and every blocking
// call of this package runs its F-prefixed form on that fiber. A failure
// that the step-function form hands to its FProtect continuation reaches
// a blocking body as a panic out of its pending call, for Protect.
func (w *World) Start(main func(r *Rank)) {
	w.StartFibers(func(r *Rank, f *sim.Fiber) sim.StepFunc {
		return f.Host(func(p *sim.Proc) {
			r.proc = p
			r.rs.failStep = func(*sim.Fiber) sim.StepFunc { return p.Throw(w.failure) }
			main(r)
		})
	})
}

// Run spawns one process per rank executing main and runs the simulation
// to completion, returning the final virtual time. Worlds attached to a
// shared engine must not Run it (the owning cluster does); use Start.
func (w *World) Run(main func(r *Rank)) (sim.Time, error) {
	if w.cfg.Engine != nil {
		panic("mpi: Run on a world with a shared engine; Start it and run from its owner")
	}
	w.Start(main)
	if w.group != nil {
		return w.group.Run()
	}
	return w.eng.Run()
}

// FiberMain is a step-function rank body: called once when the rank's
// fiber first runs, it returns the body's first step. It blocks through
// the F-prefixed continuation forms (FCompute, Comm.FRecv, Comm.FBarrier,
// ...), which are the runtime's only implementation of each operation;
// the blocking forms need a body goroutine to park and panic, naming the
// form to use, on a rank that has none.
type FiberMain func(r *Rank, f *sim.Fiber) sim.StepFunc

// RunFibers is Run for step-function bodies: no goroutine per rank, so a
// cross-rank dispatch costs a method call instead of two goroutine
// switches. Every measured path runs this way.
func (w *World) RunFibers(main FiberMain) (sim.Time, error) {
	if w.cfg.Engine != nil {
		panic("mpi: RunFibers on a world with a shared engine; StartFibers it and run from its owner")
	}
	w.StartFibers(main)
	if w.group != nil {
		return w.group.Run()
	}
	return w.eng.Run()
}

// StartFibers spawns the rank fibers without running the engine, for
// worlds attached to a shared engine.
func (w *World) StartFibers(main FiberMain) {
	w.mainFiber = main
	for i := range w.ranks {
		rs := w.ranks[i]
		rank := &Rank{w: w, rs: rs}
		start := func(f *sim.Fiber) sim.StepFunc {
			return main(rank, f)
		}
		if w.group != nil {
			rank.fib = rs.eng.SpawnFiberID(rs.rank, w.rankName(rs.rank), start)
		} else {
			rank.fib = w.eng.SpawnFiber(w.rankName(rs.rank), start)
		}
		rs.fib = rank.fib
	}
	w.scheduleCrashes()
}

// Makespan reports the latest virtual time at which one of the world's
// rank bodies finished. It is every run's completion time, single-world
// and co-scheduled alike, so rank bodies record none of their own. It
// reads each rank's current fiber (after a respawn, the incarnation that
// finished) and no helper fibers; the engine's final time, which also
// covers pending retransmission timers and other jobs, is not it. It is
// meaningful only after the engine has run to completion.
func (w *World) Makespan() sim.Time {
	var t sim.Time
	for _, rs := range w.ranks {
		if rs.fib != nil {
			if d := rs.fib.FinishedAt(); d > t {
				t = d
			}
		}
	}
	return t
}

// Rank is the handle a rank's code uses to compute and communicate. It is
// valid only inside the function passed to Run (or RunFibers), on that
// rank's process. fib is the fiber the handle's operations run on — the
// rank's own, or a helper's (nonblocking collectives); proc is the
// goroutine hosted on it when the body is blocking code, else nil.
type Rank struct {
	w    *World
	rs   *rankState
	fib  *sim.Fiber
	proc *sim.Proc
}

// Block runs the step-function form of the blocking call name on r's body
// goroutine: call builds the chain, ending in the continuation it is
// given, and Block returns once that continuation has run. Every blocking
// call of this package and of the libraries above it is Block (or Await)
// of its F form. A step-function body has no goroutine to park, so there
// Block panics, naming the form to use.
func (r *Rank) Block(name string, call func(next sim.StepFunc) sim.StepFunc) {
	if r.proc == nil {
		panic(fmt.Sprintf("mpi: %s is a blocking call and the body of rank %d is a step function: use F%s, or start the body with Run or Start", name, r.rs.rank, name))
	}
	r.proc.Await(call)
}

// Await is Block for a form that delivers one result to its continuation.
func Await[T any](r *Rank, name string, call func(then func(T) sim.StepFunc) sim.StepFunc) (out T) {
	r.Block(name, func(next sim.StepFunc) sim.StepFunc {
		return call(func(v T) sim.StepFunc {
			out = v
			return next
		})
	})
	return out
}

// Blocking returns a step that runs fn — blocking code, such as a stream
// operator that computes — on r's body goroutine in the middle of a chain
// started by Block, and continues with next.
func (r *Rank) Blocking(fn func(), next sim.StepFunc) sim.StepFunc {
	return r.proc.Blocking(fn, next)
}

// ID reports this process's rank in the world communicator.
func (r *Rank) ID() int { return r.rs.rank }

// World returns the world communicator.
func (r *Rank) World() *Comm { return r.w.world }

// Now reports the current virtual time (of the rank's engine — in
// parallel mode each shard's clock advances within its own window).
func (r *Rank) Now() sim.Time { return r.rs.eng.Now() }

// Compute consumes d of virtual time scaled by this rank's speed factor
// and perturbed by the configured noise model. All application computation
// must go through Compute (or ComputeLabeled) so that imbalance injection
// applies uniformly.
func (r *Rank) Compute(d sim.Time) { r.ComputeLabeled(d, "comp") }

// ComputeLabeled is Compute with an explicit trace label.
func (r *Rank) ComputeLabeled(d sim.Time, label string) {
	r.Block("ComputeLabeled", func(next sim.StepFunc) sim.StepFunc { return r.FComputeLabeled(d, label, next) })
}

// Idle consumes d of virtual time without noise scaling, modelling
// deliberate waiting.
func (r *Rank) Idle(d sim.Time) {
	r.Block("Idle", func(next sim.StepFunc) sim.StepFunc { return r.FIdle(d, next) })
}

// trace emits a span from start to the current instant if a tracer is
// configured.
func (r *Rank) trace(category, label string, start sim.Time) {
	if t := r.w.cfg.Tracer; t != nil {
		t.Span(r.rs.rank, category, label, start, r.rs.eng.Now())
	}
}

// traceWait emits a communication-wait span from start to the current
// instant; a wait that consumed no virtual time is not reported.
func (r *Rank) traceWait(label string, start sim.Time) {
	r.traceWaitUntil(label, start, r.rs.eng.Now())
}

// traceWaitUntil is traceWait for a wait whose end is known before it is
// reached: a barrier round's send, folded into its receive's wait.
func (r *Rank) traceWaitUntil(label string, start, end sim.Time) {
	if t := r.w.cfg.Tracer; t != nil && end > start {
		t.Span(r.rs.rank, "comm", label, start, end)
	}
}

// ftrace is trace in continuation form: next wrapped to first emit
// the span from start to the instant it runs. Without a tracer it is
// next itself, so the untraced path pays one nil check and no allocation.
func (r *Rank) ftrace(category, label string, start sim.Time, next sim.StepFunc) sim.StepFunc {
	if r.w.cfg.Tracer == nil {
		return next
	}
	return func(*sim.Fiber) sim.StepFunc {
		r.trace(category, label, start)
		return next
	}
}

// AddDebt records d of CPU overhead on the rank without suspending it.
// Libraries layered on the runtime (for example, the stream library's
// per-element injection overhead) use it.
func (r *Rank) AddDebt(d sim.Time) { r.fib.AddDebt(d) }

// FCompute consumes d of scaled, noise-perturbed virtual time and
// continues with next.
func (r *Rank) FCompute(d sim.Time, next sim.StepFunc) sim.StepFunc {
	return r.FComputeLabeled(d, "comp", next)
}

// FComputeLabeled is FCompute with an explicit trace label.
func (r *Rank) FComputeLabeled(d sim.Time, label string, next sim.StepFunc) sim.StepFunc {
	if d <= 0 {
		return next
	}
	scaled := sim.Time(float64(d) * r.rs.speed)
	// The zero noise model ignores its random source and adds nothing;
	// skipping it avoids materializing a per-process generator at all.
	if r.w.cfg.Noise != (netmodel.Noise{}) {
		scaled += r.w.cfg.Noise.Jitter(r.fib.Rand(), scaled)
	}
	// Fault bursts layer on top of speed and jitter: the noise-perturbed
	// duration is integrated through the rank's slowdown windows from the
	// current instant. Pure window arithmetic, no draws and no events.
	if len(r.rs.faults) > 0 {
		scaled = sim.StretchThrough(r.fib.Now(), scaled, r.rs.faults)
	}
	return r.fib.Advance(scaled, r.ftrace("comp", label, r.fib.Now(), next))
}

// FIdle is Idle in continuation form.
func (r *Rank) FIdle(d sim.Time, next sim.StepFunc) sim.StepFunc {
	if d > 0 {
		return r.fib.Advance(d, next)
	}
	return next
}

// StashLocked runs fn with exclusive access to the world stash, a
// world-wide scratch space for libraries built on the runtime (for
// example, the stream library's channel registry). The lock is needed in
// parallel mode, where ranks on different shards may run concurrently.
// Updates keyed (directly or in nested maps) by the calling rank stay
// deterministic under concurrency; fn must not block or touch simulation
// time.
func (r *Rank) StashLocked(fn func(stash map[string]interface{})) {
	r.w.mu.Lock()
	defer r.w.mu.Unlock()
	fn(r.w.stash)
}
