package sim

import "fmt"

// post is one buffered cross-shard event delivery: an action to schedule
// on the destination shard at (t, pri) once the running window's barrier
// has been crossed.
type post struct {
	t   Time
	pri uint64
	act Action
}

// ShardGroup runs several engines as one conservative parallel
// simulation. Ranks (and any other simulated state) are partitioned
// across the group's shard engines; each window, every shard executes
// independently up to a horizon of its own that the group's lookahead
// proves safe, and cross-shard event deliveries buffered during the window
// are merged into the destination event queues between windows.
//
// The protocol is conservative (CMB-style) windowing in which a shard
// waits only for what can reach it:
//
//  1. Apply every buffered cross-shard post to its destination engine
//     via AtActionPri.
//  2. In one pass over the shards find G, the earliest pending event
//     time, first, the shard that holds it (the lowest index on ties), and
//     G2, the earliest pending event time of every other shard. G ==
//     MaxTime means global termination (all queues empty, no posts in
//     flight).
//  3. W = G + lookahead. The lookahead is a lower bound on cross-shard
//     latency, so whatever a shard does at an instant >= G reaches another
//     shard at or after W: the busy shards — those with an event before W
//     — run concurrently, every one but first through W-1. Nothing but
//     first's own posts can make another shard act before G2, so first
//     runs through G2+lookahead-1, which is at least W-1 and unbounded
//     when no other shard has anything queued; a cross-shard post at
//     instant t pulls the posting shard's own limit in to t+lookahead-1
//     (post), the earliest the destination could answer, and chains
//     through third shards only arrive later. Run's caller executes the
//     lowest busy shard itself, and hands each other one to that shard's
//     worker, a goroutine that lives as long as the Run (shardWorkers).
//     Most windows have one busy shard and involve no other goroutine,
//     and a group of one shard runs to completion in one window.
//  4. Collect the window's outboxes and loop.
//
// Determinism does not depend on the barrier's goroutine interleaving, or
// on where a window ends: shards only touch their own state during a
// window, each (src, dst) outbox row is written by src's goroutine alone,
// and merged deliveries are ordered by the (t, pri, seq) event key in
// which pri is a canonical partition-independent value supplied by the
// sender (see Engine.AtActionPri). The group's trajectory is therefore a
// pure function of the simulated program, byte-identical for every shard
// count; only the number of windows it took follows the placement.
type ShardGroup struct {
	engines   []*Engine
	lookahead Time
	// outbox[src][dst] buffers the posts shard src created for shard dst
	// during the running window. Only src's goroutine appends to row src,
	// so no locking is needed while a window executes.
	outbox [][][]post
	// windowEnd is G + lookahead of the running window, the earliest instant
	// anything done in it may reach another shard; posts below it would
	// violate the lookahead guarantee and panic.
	windowEnd Time
	// busyHist[k] counts the windows that had k busy shards, posts the
	// deliveries merged at window boundaries and extended the windows whose
	// first shard used its longer horizon (Stats). Only Run's caller touches
	// them, between windows.
	busyHist []uint64
	posts    uint64
	extended uint64
}

// NewShardGroup builds n engines sharing one seed and one conservative
// lookahead. All engines see the same seed so id-seeded random streams
// are placement-independent; lookahead must be a positive lower bound on
// the virtual-time latency of every cross-shard interaction.
func NewShardGroup(seed int64, n int, lookahead Time) *ShardGroup {
	if n < 1 {
		panic(fmt.Sprintf("sim: NewShardGroup with %d shards", n))
	}
	if lookahead <= 0 {
		panic(fmt.Sprintf("sim: NewShardGroup with non-positive lookahead %v", lookahead))
	}
	g := &ShardGroup{
		engines:   make([]*Engine, n),
		lookahead: lookahead,
		outbox:    make([][][]post, n),
		busyHist:  make([]uint64, n+1),
	}
	for i := range g.engines {
		e := NewEngine(seed)
		e.group = g
		e.shard = i
		g.engines[i] = e
		g.outbox[i] = make([][]post, n)
	}
	return g
}

// ShardStats counts what the window barrier of a group did. The counts
// are functions of the simulated program, the lookahead and, where noted,
// the placement — never of timing — so a test can pin them exactly.
type ShardStats struct {
	// Windows is the number of windows executed. The shard holding the
	// earliest event runs until another shard could reach it, so the count
	// depends on the placement: from one window for a group of one shard up
	// to one per lookahead of virtual time in which anything happens.
	Windows uint64
	// LoneWindows is the number of windows with exactly one busy shard,
	// which Run's caller executes with no barrier (BusyShards[1]).
	LoneWindows uint64
	// BusyShards[k] is the number of windows in which k shards had an
	// event to execute; it depends on the placement.
	BusyShards []uint64
	// Posts is the number of cross-shard deliveries merged at window
	// boundaries; it depends on the placement.
	Posts uint64
	// Extended is the number of windows in which the shard holding the
	// earliest event fired an event at or past G + lookahead, the bound every
	// shard stopped at before shards had horizons of their own; it depends on
	// the placement.
	Extended uint64
}

// Stats reports the group's window counts so far. Call it after Run, not
// while a window may be executing.
func (g *ShardGroup) Stats() ShardStats {
	st := ShardStats{
		LoneWindows: g.busyHist[1],
		BusyShards:  append([]uint64(nil), g.busyHist...),
		Posts:       g.posts,
		Extended:    g.extended,
	}
	for _, n := range g.busyHist {
		st.Windows += n
	}
	return st
}

// Shards reports the number of shard engines in the group.
func (g *ShardGroup) Shards() int { return len(g.engines) }

// Shard returns the i'th shard engine.
func (g *ShardGroup) Shard(i int) *Engine { return g.engines[i] }

// post buffers a cross-shard delivery (Engine.Post's cross-engine arm).
// Called from the goroutine running shard src's window, it also pulls src's
// own run limit in to t+lookahead-1: the destination acts on the delivery
// at t, so nothing it causes reaches src earlier. Only the shard running
// past the window end (Run's first) has a limit that far out.
func (g *ShardGroup) post(src, dst int, t Time, pri uint64, act Action) {
	if t < g.windowEnd {
		panic(fmt.Sprintf("sim: cross-shard post at %v inside the current window (end %v): lookahead exceeds the actual cross-shard latency", t, g.windowEnd))
	}
	if e := g.engines[src]; t <= e.limit-g.lookahead {
		e.limit = t + g.lookahead - 1
	}
	g.outbox[src][dst] = append(g.outbox[src][dst], post{t: t, pri: pri, act: act})
}

// applyInboxes merges every buffered post into its destination queue and
// recycles the outbox rows. Application order is deterministic (dst-major,
// src order, append order) but does not influence the trajectory: merged
// events are ordered by (t, pri, seq) and every post's (t, pri) is unique
// — pri encodes the sending rank and its send counter.
func (g *ShardGroup) applyInboxes() {
	for dst, e := range g.engines {
		for src := range g.engines {
			row := g.outbox[src][dst]
			g.posts += uint64(len(row))
			for i := range row {
				p := row[i]
				e.AtActionPri(p.t, p.pri, p.act)
				row[i] = post{}
			}
			g.outbox[src][dst] = row[:0]
		}
	}
}

// runShard executes one shard's window on the calling goroutine,
// capturing a panic (which has already unwound the shard's own processes)
// into slot for the barrier to handle deterministically. It leaves the
// shard's clock at the last event fired: a limit is how far the shard may
// run, not an instant anything happened at.
func runShard(e *Engine, limit Time, slot *interface{}) {
	defer func() {
		if r := recover(); r != nil {
			*slot = r
		}
	}()
	e.limit = limit
	e.drive()
}

// shardWorkers are the goroutines of one Run that execute the windows of
// the shards its caller does not run itself. They live from the run's
// first window with several busy shards until Run returns, parked between
// windows on a channel of their own, so a window costs a hand-off to a
// warm stack instead of a goroutine and the stack growth of its first
// event.
type shardWorkers struct {
	// limit[s] hands shard s's worker one window's run limit; closing
	// it ends the worker. Shard 0, when busy, is the lowest busy shard and
	// runs on the caller, so limit[0] stays nil.
	limit []chan Time
	// done carries one token per finished window and one per exited
	// worker; its buffer holds one per worker, so a worker never waits for
	// the caller to finish its own shard.
	done chan struct{}
}

// startWorkers starts one worker per shard index >= 1; worker s records a
// failed window in panics[s].
func (g *ShardGroup) startWorkers(panics []interface{}) *shardWorkers {
	n := len(g.engines)
	ws := &shardWorkers{limit: make([]chan Time, n), done: make(chan struct{}, n-1)}
	for s := 1; s < n; s++ {
		ws.limit[s] = make(chan Time)
		go ws.run(g.engines[s], &panics[s])
	}
	return ws
}

func (ws *shardWorkers) run(e *Engine, slot *interface{}) {
	for limit := range ws.limit[e.shard] {
		runShard(e, limit, slot)
		ws.done <- struct{}{}
	}
	ws.done <- struct{}{}
}

// stop ends every worker and returns once all have exited. The workers
// must be parked (no window in flight).
func (ws *shardWorkers) stop() {
	for _, c := range ws.limit[1:] {
		close(c)
	}
	for range ws.limit[1:] {
		<-ws.done
	}
}

// Run executes the group to completion and returns the final virtual time
// — the instant of the last event fired on any shard, as Engine.Run
// reports it for one engine. If processes remain blocked when every queue
// drains, Run returns a DeadlockError aggregating the blocked set across
// shards. On return (or panic) every shard engine is unwound, exactly as
// Engine.Run guarantees for a single engine, and every goroutine Run
// started has exited.
func (g *ShardGroup) Run() (Time, error) {
	panics := make([]interface{}, len(g.engines))
	busy := make([]*Engine, 0, len(g.engines))
	var workers *shardWorkers
	defer func() {
		// Every worker has exited before Run returns or panics.
		if workers != nil {
			workers.stop()
		}
	}()
	for {
		g.applyInboxes()
		// first holds the earliest pending event, at gmin; gmin2 is the
		// earliest pending event of the other shards.
		var first *Engine
		gmin, gmin2 := MaxTime, MaxTime
		for _, e := range g.engines {
			if t := e.queue.minT(); t < gmin {
				first, gmin, gmin2 = e, t, gmin
			} else if t < gmin2 {
				gmin2 = t
			}
		}
		if first == nil {
			break
		}
		w := gmin + g.lookahead
		if w < gmin {
			panic(fmt.Sprintf("sim: window end overflows virtual time (G %v, lookahead %v)", gmin, g.lookahead))
		}
		g.windowEnd = w
		// Nothing reaches first before one lookahead past the others'
		// earliest event (post covers what first itself sets off), so that,
		// not w, bounds its window.
		horizon := gmin2 + g.lookahead - 1
		if horizon < gmin2 {
			horizon = MaxTime
		}
		limit := func(e *Engine) Time {
			if e == first {
				return horizon
			}
			return w - 1
		}
		busy = busy[:0]
		for _, e := range g.engines {
			if e.queue.minT() < w {
				busy = append(busy, e)
			}
		}
		g.busyHist[len(busy)]++
		if len(busy) > 1 {
			// busy[0] is the lowest busy shard, so every other busy shard
			// has an index >= 1 and a worker of its own.
			if workers == nil {
				workers = g.startWorkers(panics)
			}
			for _, e := range busy[1:] {
				workers.limit[e.shard] <- limit(e)
			}
		}
		// The caller runs the lowest busy shard itself: a lone busy shard
		// (most windows) needs no barrier at all, and with several it has
		// one hand-off less to wait for.
		runShard(busy[0], limit(busy[0]), &panics[busy[0].shard])
		for range busy[1:] {
			<-workers.done
		}
		for _, r := range panics {
			if r != nil {
				// Unwind the surviving shards before re-raising so no
				// parked rank goroutine outlives the run; re-panic the
				// lowest shard index for a deterministic message when
				// several shards fail in one window.
				g.unwindAll()
				panic(r)
			}
		}
		if first.now >= w {
			g.extended++
		}
	}
	now := Time(0)
	live := 0
	for _, e := range g.engines {
		if e.now > now {
			now = e.now
		}
		live += e.live
	}
	if live > 0 {
		err := g.deadlockError(now)
		g.unwindAll()
		return now, err
	}
	g.unwindAll()
	return now, nil
}

// unwindAll releases the parked body goroutines of every shard.
func (g *ShardGroup) unwindAll() {
	for _, e := range g.engines {
		e.unwind()
	}
}

// deadlockError aggregates the blocked processes of every shard into one
// DeadlockError.
func (g *ShardGroup) deadlockError(at Time) error {
	var blocked []string
	for _, e := range g.engines {
		blocked = e.blockedNames(blocked)
	}
	return newDeadlockError(blocked, at)
}
