package soc

import "slices"

// mshrTable tracks outstanding misses: line → the core op tokens waiting
// on the fill. It is two parallel arrays sized to the MSHR bound, the
// layout the caches use: lines holds the outstanding line numbers
// densely in [0, len), and entries[i] holds the waiters of lines[i]. A
// lookup or remove is a linear scan of at most MaxMSHRs words, and
// remove fills the hole with the last entry. Each entry stores up to
// mshrInline waiter tokens inline, so the per-miss path — scan, insert,
// coalesce, drain — allocates nothing; a waiter list only spills to a
// heap slice when more than mshrInline ops coalesce on one line, which
// demand windows rarely produce.
type mshrTable struct {
	lines   []uint64
	entries []mshrEntry
}

const mshrInline = 6

// mshrEntry holds one line's waiters. Every entry has at least one: a
// miss is entered by the op that takes it, and later ops to the line
// coalesce onto it.
type mshrEntry struct {
	n        int32
	inline   [mshrInline]uint64
	overflow []uint64
}

func newMSHRTable(maxEntries int) *mshrTable {
	return &mshrTable{lines: make([]uint64, 0, maxEntries), entries: make([]mshrEntry, 0, maxEntries)}
}

// len returns the number of outstanding misses (MSHR occupancy).
func (t *mshrTable) len() int { return len(t.lines) }

// lookup returns the entry for line, or nil.
func (t *mshrTable) lookup(line uint64) *mshrEntry {
	for i, l := range t.lines {
		if l == line {
			return &t.entries[i]
		}
	}
	return nil
}

// insert adds an entry for line (which must not be present) whose
// first waiter is tok.
func (t *mshrTable) insert(line, tok uint64) {
	t.lines = append(t.lines, line)
	// The slot past len is zero (remove and reset clear what they
	// drop), so the entry is written in place rather than built and
	// copied in. The caller never exceeds the table's MSHR bound.
	t.entries = t.entries[:len(t.entries)+1]
	e := &t.entries[len(t.entries)-1]
	e.n, e.inline[0] = 1, tok
}

// addWaiter appends a core op token to an entry's waiter list.
func (e *mshrEntry) addWaiter(tok uint64) {
	if e.n < mshrInline {
		e.inline[e.n] = tok
	} else {
		e.overflow = append(e.overflow, tok)
	}
	e.n++
}

// waiter returns the i-th waiter token.
func (e *mshrEntry) waiter(i int32) uint64 {
	if i < mshrInline {
		return e.inline[i]
	}
	return e.overflow[i-mshrInline]
}

// remove deletes line's entry, if present, moving the last entry into
// the hole.
func (t *mshrTable) remove(line uint64) {
	last := len(t.lines) - 1
	for i, l := range t.lines {
		if l == line {
			t.lines[i], t.entries[i] = t.lines[last], t.entries[last]
			t.entries[last] = mshrEntry{} // release any spilled waiter list
			t.lines, t.entries = t.lines[:last], t.entries[:last]
			return
		}
	}
}

// reset empties the table (checkpoint restore).
func (t *mshrTable) reset() {
	clear(t.entries)
	t.lines, t.entries = t.lines[:0], t.entries[:0]
}

// sortedLines appends every outstanding line in ascending order
// (checkpoints serialize in canonical order; cold path, may allocate).
func (t *mshrTable) sortedLines(dst []uint64) []uint64 {
	dst = append(dst, t.lines...)
	slices.Sort(dst)
	return dst
}
