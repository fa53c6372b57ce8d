package sim

// DelayQueue delivers items at or after a scheduled cycle. It is the
// building block for every latency-bearing link in the system (NoC hops,
// cache pipelines, DRAM data returns).
//
// Items scheduled for the same cycle pop in insertion order, keeping the
// simulation deterministic. The implementation is a binary min-heap keyed
// by (readyAt, sequence).
type DelayQueue[T any] struct {
	entries []delayEntry[T]
	seq     uint64
}

type delayEntry[T any] struct {
	readyAt uint64
	seq     uint64
	item    T
}

// Len returns the number of queued items, ready or not.
func (q *DelayQueue[T]) Len() int { return len(q.entries) }

// Grow pre-allocates capacity for n queued entries so a warmed queue
// never reallocates its backing array.
func (q *DelayQueue[T]) Grow(n int) {
	if n > cap(q.entries) {
		entries := make([]delayEntry[T], len(q.entries), n)
		copy(entries, q.entries)
		q.entries = entries
	}
}

// Push schedules item to become available at cycle readyAt.
func (q *DelayQueue[T]) Push(item T, readyAt uint64) {
	q.entries = append(q.entries, delayEntry[T]{readyAt: readyAt, seq: q.seq, item: item})
	q.seq++
	q.up(len(q.entries) - 1)
}

// Pop removes and returns the earliest item if it is ready at cycle now.
func (q *DelayQueue[T]) Pop(now uint64) (T, bool) {
	var zero T
	if len(q.entries) == 0 || q.entries[0].readyAt > now {
		return zero, false
	}
	item := q.entries[0].item
	last := len(q.entries) - 1
	q.entries[0] = q.entries[last]
	q.entries[last] = delayEntry[T]{} // release reference
	q.entries = q.entries[:last]
	if last > 0 {
		q.down(0)
	}
	return item, true
}

// Peek reports the earliest scheduled item without removing it.
func (q *DelayQueue[T]) Peek() (T, uint64, bool) {
	var zero T
	if len(q.entries) == 0 {
		return zero, 0, false
	}
	return q.entries[0].item, q.entries[0].readyAt, true
}

// At returns the i-th queued item in storage order, not delivery order
// (0 <= i < Len).
func (q *DelayQueue[T]) At(i int) T { return q.entries[i].item }

func (q *DelayQueue[T]) less(i, j int) bool {
	a, b := &q.entries[i], &q.entries[j]
	if a.readyAt != b.readyAt {
		return a.readyAt < b.readyAt
	}
	return a.seq < b.seq
}

func (q *DelayQueue[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.entries[i], q.entries[parent] = q.entries[parent], q.entries[i]
		i = parent
	}
}

func (q *DelayQueue[T]) down(i int) {
	n := len(q.entries)
	for {
		left, right := 2*i+1, 2*i+2
		smallest := i
		if left < n && q.less(left, smallest) {
			smallest = left
		}
		if right < n && q.less(right, smallest) {
			smallest = right
		}
		if smallest == i {
			return
		}
		q.entries[i], q.entries[smallest] = q.entries[smallest], q.entries[i]
		i = smallest
	}
}
