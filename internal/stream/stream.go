package stream

import (
	"fmt"

	"repro/internal/mpi"
	"repro/internal/sim"
)

// Element is the basic unit of a data stream (paper Section III-A). Bytes
// defaults to the stream's configured granularity when zero.
type Element struct {
	Bytes int64
	Data  interface{}
}

// Operator processes one arrived stream element on the consumer
// (MPIStream's operator attached to the data stream). src is the producer
// index the element came from.
type Operator func(r *mpi.Rank, elem Element, src int)

// Stats summarizes a stream endpoint's activity.
type Stats struct {
	// ElementsSent / ElementsReceived count stream elements.
	ElementsSent     int64
	ElementsReceived int64
	// Bytes counts element payload bytes at this endpoint.
	Bytes int64
	// FirstAt / LastAt bracket element arrival times on the consumer.
	FirstAt, LastAt sim.Time
	// WaitTime is the total time the consumer spent blocked waiting for
	// data.
	WaitTime sim.Time
}

// termMsg closes a producer's stream: sentTo[ci] is how many elements this
// producer sent to consumer index ci over the stream's lifetime.
type termMsg struct {
	src    int
	sentTo []int64
}

// Stream is one directed data flow over a channel. Producer ranks inject
// elements with Isend and close with Terminate; consumer ranks run
// Operate.
type Stream struct {
	ch      *Channel
	opts    Options
	elemTag int
	termTag int

	prodIdx int // -1 on non-producers
	consIdx int // -1 on non-consumers

	// Producer state.
	home       int     // HomeConsumer(prodIdx)
	sent       []int64 // elements sent, by consumer index
	terminated bool

	stats Stats
}

// Isend injects one element toward the producer's home consumer, as soon
// as the data for the element is ready (paper step 4). It never blocks:
// the element is handed to the network asynchronously.
func (s *Stream) Isend(r *mpi.Rank, elem Element) {
	if s.prodIdx < 0 {
		panic("stream: Isend called on a non-producer rank")
	}
	s.IsendTo(r, elem, s.home)
}

// IsendTo injects one element toward an explicit consumer index. Explicit
// routing lets applications key elements (for example, hashing reduce keys
// over the consumer group).
func (s *Stream) IsendTo(r *mpi.Rank, elem Element, consumer int) {
	if s.prodIdx < 0 {
		panic("stream: IsendTo called on a non-producer rank")
	}
	if s.terminated {
		panic("stream: Isend after Terminate")
	}
	if consumer < 0 || consumer >= len(s.ch.consumers) {
		panic(fmt.Sprintf("stream: consumer index %d of %d", consumer, len(s.ch.consumers)))
	}
	if s.opts.FixedOrder && consumer != s.home {
		panic("stream: explicit routing is incompatible with FixedOrder consumption")
	}
	if elem.Bytes <= 0 {
		elem.Bytes = s.opts.ElementBytes
	}
	// Element construction + injection-call overhead: the o of Eq. 4.
	r.AddDebt(s.opts.InjectOverhead)
	s.stats.ElementsSent++
	s.stats.Bytes += elem.Bytes
	s.sent[consumer]++
	s.ch.parent.IsendAndFree(r, s.ch.consumers[consumer], s.elemTag, elem.Bytes, elem.Data)
}

// unpack decodes one arrived stream message: the element is the message,
// its size and payload the message's own, and its producer index that of
// the message's source.
func (s *Stream) unpack(st mpi.Status) (Element, int) {
	return Element{Bytes: st.Bytes, Data: st.Data}, s.ch.position(s.ch.producers, st.Source)
}

// Terminate closes the producer's side of the stream (paper step 5:
// MPIStream_Terminate): a termination record carrying the producer's
// per-consumer element counts goes to its home consumer.
func (s *Stream) Terminate(r *mpi.Rank) {
	if s.prodIdx < 0 {
		panic("stream: Terminate called on a non-producer rank")
	}
	if s.terminated {
		panic("stream: Terminate called twice")
	}
	s.terminated = true
	// The counts travel as they are: a terminated stream sends nothing more.
	s.ch.parent.IsendAndFree(r, s.ch.consumers[s.home], s.termTag, 64, termMsg{src: s.prodIdx, sentTo: s.sent})
}

// Operate runs the consumer loop (paper step 4: MPIStream_Operate):
// elements are processed first-come-first-served as they arrive, applying
// op on the fly, until every producer has terminated and every element
// addressed to this consumer has been processed. It returns the consumer's
// statistics. op may itself block (compute per element).
func (s *Stream) Operate(r *mpi.Rank, op Operator) Stats {
	return mpi.Await(r, "Operate", func(then func(Stats) sim.StepFunc) sim.StepFunc {
		return s.FOperate(r, func(r *mpi.Rank, elem Element, src int, next sim.StepFunc) sim.StepFunc {
			return r.Blocking(func() { op(r, elem, src) }, next)
		}, then)
	})
}
