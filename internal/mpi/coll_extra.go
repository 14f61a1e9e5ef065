package mpi

// Additional collectives beyond what the paper's applications strictly
// need, rounding the runtime out to a usable MPI subset.

// Sendrecv performs a simultaneous send to dst and receive from src, like
// MPI_Sendrecv: both transfers are posted before either is waited on, so
// pairwise exchanges complete in one round trip.
func (c *Comm) Sendrecv(r *Rank, dst, dtag int, bytes int64, data interface{}, src, stag int) Status {
	sreq := c.Isend(r, dst, dtag, bytes, data)
	rreq := c.Irecv(r, src, stag)
	st := c.Wait(r, rreq)
	c.Wait(r, sreq)
	return st
}

// Scan computes the inclusive prefix reduction over comm ranks: rank i
// receives op(part_0, ..., part_i). Linear-chain algorithm, like small
// MPI implementations use.
func (c *Comm) Scan(r *Rank, part Part, op ReduceOp, cost CostFn) Part {
	me := c.RankOf(r)
	tag := c.nextCollTag(me)
	acc := part
	if me > 0 {
		st := c.Recv(r, me-1, tag)
		if cost != nil {
			r.Idle(cost(acc.Bytes + st.Bytes))
		}
		acc = Part{Bytes: maxI64(acc.Bytes, st.Bytes), Data: op(st.Data, acc.Data)}
	}
	if me < len(c.members)-1 {
		c.Send(r, me+1, tag, acc.Bytes, acc.Data)
	}
	return acc
}

// ReduceScatterBlock combines every rank's vector of parts elementwise and
// scatters the result: rank i ends up with the combined parts[i]. Each
// rank must pass exactly Size parts. Implemented as reduce-to-root plus
// scatter (pairwise algorithms matter only for very large payloads).
func (c *Comm) ReduceScatterBlock(r *Rank, parts []Part, op ReduceOp, cost CostFn) Part {
	p := len(c.members)
	if len(parts) != p {
		panic("mpi: ReduceScatterBlock needs one part per rank")
	}
	me := c.RankOf(r)
	// Reduce the whole vector to rank 0.
	var total int64
	for _, pt := range parts {
		total += pt.Bytes
	}
	vec := Part{Bytes: total, Data: parts}
	combined, isRoot := c.Reduce(r, 0, vec, func(a, b interface{}) interface{} {
		av, _ := a.([]Part)
		bv, _ := b.([]Part)
		if av == nil {
			return bv
		}
		if bv == nil {
			return av
		}
		out := make([]Part, len(av))
		for i := range av {
			out[i] = Part{
				Bytes: maxI64(av[i].Bytes, bv[i].Bytes),
				Data:  op(av[i].Data, bv[i].Data),
			}
		}
		return out
	}, cost)
	// Scatter the slots.
	stag := c.nextCollTag(me)
	if isRoot {
		cv := combined.Data.([]Part)
		var reqs []*Request
		for dst := 1; dst < p; dst++ {
			reqs = append(reqs, c.Isend(r, dst, stag, cv[dst].Bytes, cv[dst].Data))
		}
		for _, q := range reqs {
			c.Wait(r, q)
		}
		return cv[0]
	}
	st := c.Recv(r, 0, stag)
	return Part{Bytes: st.Bytes, Data: st.Data}
}

// Gather is Gatherv with uniform part sizes; kept for API symmetry.
func (c *Comm) Gather(r *Rank, root int, part Part) []Part {
	return c.Gatherv(r, root, part)
}

// Scatter distributes root's parts: rank i receives parts[i]. Only root's
// parts argument is consulted.
func (c *Comm) Scatter(r *Rank, root int, parts []Part) Part {
	me := c.RankOf(r)
	tag := c.nextCollTag(me)
	p := len(c.members)
	if me == root {
		if len(parts) != p {
			panic("mpi: Scatter needs one part per rank at root")
		}
		var reqs []*Request
		for dst := 0; dst < p; dst++ {
			if dst == root {
				continue
			}
			reqs = append(reqs, c.Isend(r, dst, tag, parts[dst].Bytes, parts[dst].Data))
		}
		for _, q := range reqs {
			c.Wait(r, q)
		}
		return parts[root]
	}
	st := c.Recv(r, root, tag)
	return Part{Bytes: st.Bytes, Data: st.Data}
}
