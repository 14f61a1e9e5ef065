// Package stream implements the paper's MPIStream library: asynchronous,
// fine-grained data flows between disjoint groups of processes, which is
// the mechanism the decoupling strategy uses to link operation groups
// (Section III of the paper).
//
// The API mirrors the paper's C interface:
//
//	MPIStream_CreateChannel -> CreateChannel
//	MPIStream_Attach        -> Channel.Attach
//	MPIStream_Isend         -> Stream.Isend / Stream.IsendTo
//	MPIStream_Operate       -> Stream.Operate
//	MPIStream_Terminate     -> Stream.Terminate
//	MPIStream_FreeChannel   -> Channel.Free
//
// Producers inject stream elements as soon as they are ready; consumers
// process arrived elements first-come-first-served, which is what absorbs
// process imbalance (Section II-B). Each injected element costs the
// configured per-element overhead — the "o" of the paper's Eq. 4.
package stream

import (
	"fmt"

	"repro/internal/mpi"
	"repro/internal/sim"
)

// Tag space: application tags must stay below streamTagBase; collective
// tags live above 1<<24 (see internal/mpi).
const streamTagBase = 1 << 20

// Role declares a rank's part in a channel.
type Role int

// Channel roles. A rank that is neither producer nor consumer passes None
// (it participates in channel setup but carries no data).
const (
	None Role = iota
	Producer
	Consumer
)

// Channel is a communication channel between a producer group and a
// consumer group, created collectively over a parent communicator.
type Channel struct {
	parent *mpi.Comm
	*membership
	prodComm  *mpi.Comm
	consComm  *mpi.Comm
	role      Role
	seq       int         // channel sequence number on the parent comm
	attachSeq map[int]int // per-rank stream attach counters (lockstep)
	freeSeq   map[int]int // per-rank Free counters
}

// membership is the two groups of one channel. It is built once per
// channel collective and shared, read-only, by every member's Channel:
// the roles already reached every rank through the modelled allgatherv,
// so the lists travel through shared simulator state (DESIGN.md).
type membership struct {
	producers []int // parent comm ranks, in rank order
	consumers []int // parent comm ranks, in rank order
	index     []int // parent comm rank -> position in its own group, or -1
	left      int   // members that have not joined yet
}

// newMembership sorts the parent comm's ranks into the two groups by their
// gathered roles and indexes each rank's position in its group.
func newMembership(roles []mpi.Part) *membership {
	m := &membership{index: make([]int, len(roles)), left: len(roles)}
	for rank, part := range roles {
		m.index[rank] = -1
		switch part.Data.(Role) {
		case Producer:
			m.index[rank] = len(m.producers)
			m.producers = append(m.producers, rank)
		case Consumer:
			m.index[rank] = len(m.consumers)
			m.consumers = append(m.consumers, rank)
		}
	}
	if len(m.producers) == 0 || len(m.consumers) == 0 {
		panic("stream: channel needs at least one producer and one consumer")
	}
	return m
}

// position returns parent rank's index in group (m.producers or
// m.consumers), or -1 if it is not a member of that group.
func (m *membership) position(group []int, rank int) int {
	if i := m.index[rank]; i >= 0 && i < len(group) && group[i] == rank {
		return i
	}
	return -1
}

// channelRegistry is the per-parent-communicator channel bookkeeping kept
// in the world stash: every rank's channel counter, and the membership of
// each channel some members have yet to join.
type channelRegistry struct {
	seqs    map[int]int // parent comm rank -> channels created (lockstep)
	joining map[int]*membership
}

// newChannel builds me's descriptor of the channel whose gathered roles
// are given: it draws the
// deterministic channel sequence number (channel creation is collective,
// so every rank's counter is in the same state) and joins the channel's
// membership, which the first member to arrive builds from roles and the
// last removes from the registry.
func newChannel(r *mpi.Rank, parent *mpi.Comm, role Role, me int, roles []mpi.Part) *Channel {
	ch := &Channel{
		parent:    parent,
		role:      role,
		attachSeq: make(map[int]int),
		freeSeq:   make(map[int]int),
	}
	key := fmt.Sprintf("stream:channels:%d", parent.ID())
	r.StashLocked(func(stash map[string]interface{}) {
		reg, _ := stash[key].(*channelRegistry)
		if reg == nil {
			reg = &channelRegistry{seqs: make(map[int]int), joining: make(map[int]*membership)}
			stash[key] = reg
		}
		reg.seqs[me]++
		ch.seq = reg.seqs[me]
		m := reg.joining[ch.seq]
		if m == nil {
			m = newMembership(roles)
			reg.joining[ch.seq] = m
		}
		if m.left--; m.left == 0 {
			delete(reg.joining, ch.seq)
		}
		ch.membership = m
	})
	return ch
}

// groupColors reports the Split colors that put role's rank into the
// producer and consumer sub-communicators (-1 keeps it out).
func groupColors(role Role) (prodColor, consColor int) {
	prodColor, consColor = -1, -1
	if role == Producer {
		prodColor = 1
	}
	if role == Consumer {
		consColor = 1
	}
	return prodColor, consColor
}

// CreateChannel establishes a channel over parent. Collective: every
// member of parent must call it with its role. The group from which data
// originates is the producer group; the group to which data flows is the
// consumer group (paper Section III-A, step 1).
func CreateChannel(r *mpi.Rank, parent *mpi.Comm, role Role) *Channel {
	return mpi.Await(r, "CreateChannel", func(then func(*Channel) sim.StepFunc) sim.StepFunc {
		return FCreateChannel(r, parent, role, then)
	})
}

// ProducerComm returns the producer group's own communicator (nil on
// ranks outside the producer group).
func (ch *Channel) ProducerComm() *mpi.Comm { return ch.prodComm }

// ConsumerComm returns the consumer group's own communicator (nil on
// ranks outside the consumer group).
func (ch *Channel) ConsumerComm() *mpi.Comm { return ch.consComm }

// Consumers reports the number of consumer ranks.
func (ch *Channel) Consumers() int { return len(ch.consumers) }

// ProducerIndex translates r into its index within the producer group, or
// -1 if r is not a producer.
func (ch *Channel) ProducerIndex(r *mpi.Rank) int {
	return ch.position(ch.producers, ch.parent.RankOf(r))
}

// ConsumerIndex translates r into its index within the consumer group, or
// -1 if r is not a consumer.
func (ch *Channel) ConsumerIndex(r *mpi.Rank) int {
	return ch.position(ch.consumers, ch.parent.RankOf(r))
}

// HomeConsumer reports the consumer index that producer index pi streams
// to by default (block mapping, so consecutive producers share a home
// consumer).
func (ch *Channel) HomeConsumer(pi int) int {
	return pi * len(ch.consumers) / len(ch.producers)
}

// homeProducers reports the producer indices [lo, hi) whose home is
// consumer index ci; HomeConsumer is a block mapping, so they are
// consecutive: pi*C/P == ci exactly when ci*P <= pi*C < (ci+1)*P.
func (ch *Channel) homeProducers(ci int) (lo, hi int) {
	p, c := len(ch.producers), len(ch.consumers)
	return (ci*p + c - 1) / c, ((ci+1)*p + c - 1) / c
}

// Free releases the channel. Collective over the parent communicator
// (paper step 5: MPIStream_FreeChannel). Freeing the channel more than
// once on the same rank is a programming error.
func (ch *Channel) Free(r *mpi.Rank) {
	r.Block("Free", func(next sim.StepFunc) sim.StepFunc { return ch.FFree(r, next) })
}

// Options configures a stream attached to a channel.
type Options struct {
	// ElementBytes is the stream granularity S: the default payload size
	// of one element. Elements may override it individually.
	ElementBytes int64
	// InjectOverhead is the per-element producer-side overhead o of
	// Eq. 4: building the element and calling the injection function.
	InjectOverhead sim.Time
	// FixedOrder disables first-come-first-served consumption: the
	// consumer drains its home producers in a fixed round-robin order.
	// It exists to ablate the imbalance-absorption mechanism and only
	// supports default (home) routing.
	FixedOrder bool
}

func (o Options) withDefaults() Options {
	if o.ElementBytes <= 0 {
		o.ElementBytes = 1024
	}
	if o.InjectOverhead <= 0 {
		o.InjectOverhead = 200 * sim.Nanosecond
	}
	return o
}

// Attach creates a stream on the channel (paper step 3: the operator is
// supplied to Operate on the consumer side). Collective over the parent
// communicator in the sense that producers and consumers must attach
// streams in the same order.
func (ch *Channel) Attach(r *mpi.Rank, opts Options) *Stream {
	me := ch.parent.RankOf(r)
	ch.attachSeq[me]++
	base := streamTagBase + ch.seq*4096 + ch.attachSeq[me]*4
	s := &Stream{
		ch:      ch,
		opts:    opts.withDefaults(),
		elemTag: base,
		termTag: base + 1,
		prodIdx: ch.ProducerIndex(r),
	}
	if s.prodIdx >= 0 {
		s.home = ch.HomeConsumer(s.prodIdx)
		s.sent = make([]int64, len(ch.consumers))
	}
	s.consIdx = ch.ConsumerIndex(r)
	return s
}
