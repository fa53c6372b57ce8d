package mem

// Pool is a deterministic free-list of Packets. The simulator's steady
// state recycles packets instead of allocating one per L2 miss or
// writeback, and the recycling order must be reproducible run-to-run —
// which rules out sync.Pool (per-P caches drain and refill on the
// scheduler's whim). A plain LIFO slice, filled and drained at fixed
// points of the deterministic tick, recycles in exactly the same order
// every run.
//
// Ownership contract (see DESIGN.md, "Packet lifetime & ownership"):
// Get transfers exclusive ownership to the caller; the packet travels
// tile → NoC → slice → front door → controller → response → tile (or
// slice/controller for writebacks) with exactly one owner at a time, and
// the final owner returns it with Put. Observers and arbiters may read
// fields while the packet is live but must never retain the pointer past
// the call that handed it to them: after Put the struct is reused and
// every field is rewritten.
//
// Pool is not safe for concurrent use. Checkpoints serialize nothing about pools — in-flight packets are
// walked by value in canonical queue order, and a restored system simply
// repopulates its pools as restored packets retire.
type Pool struct {
	free []*Packet
}

// Get returns a zeroed packet, recycling the most recently released one
// when available.
func (p *Pool) Get() *Packet {
	if n := len(p.free); n > 0 {
		pkt := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return pkt
	}
	return &Packet{}
}

// Put releases a packet back to the pool. The packet is cleared here, so
// a stale read through a leaked pointer yields zeroes rather than
// another transaction's fields — making retention bugs loud in tests.
func (p *Pool) Put(pkt *Packet) {
	*pkt = Packet{}
	p.free = append(p.free, pkt)
}

// Grow pre-allocates capacity for n pooled packets so a warmed pool
// never reallocates its free-list backing array.
func (p *Pool) Grow(n int) {
	if n > cap(p.free) {
		free := make([]*Packet, len(p.free), n)
		copy(free, p.free)
		p.free = free
	}
}

// Len returns the number of idle packets currently pooled.
func (p *Pool) Len() int { return len(p.free) }
