package sim

import "pabst/internal/ckpt"

// State returns the raw xorshift state for checkpointing.
func (r *RNG) State() uint64 { return r.state }

// SetState overlays a previously captured state. A zero state would wedge
// the generator, so it is remapped exactly as Seed does.
func (r *RNG) SetState(s uint64) {
	if s == 0 {
		s = 1
	}
	r.state = s
}

// SaveState implements ckpt.Saver.
func (r *RNG) SaveState(w *ckpt.Writer) { w.U64(r.state) }

// RestoreState implements ckpt.Restorer.
func (r *RNG) RestoreState(cr *ckpt.Reader) { r.SetState(cr.U64()) }

// SaveDelayQueue serializes a delay queue: the sequence counter plus the
// raw heap array in storage order. Same-cycle ties break by insertion
// sequence, so reproducing the array verbatim reproduces every future pop
// exactly. The item codec is supplied by the caller.
func SaveDelayQueue[T any](w *ckpt.Writer, q *DelayQueue[T], save func(*ckpt.Writer, T)) {
	w.U64(q.seq)
	w.U64(uint64(len(q.entries)))
	for i := range q.entries {
		w.U64(q.entries[i].readyAt)
		w.U64(q.entries[i].seq)
		save(w, q.entries[i].item)
	}
}

// LoadDelayQueue overlays a previously saved delay queue. The heap
// property held when saved and the array is restored verbatim, so no
// re-heapify is needed.
func LoadDelayQueue[T any](r *ckpt.Reader, q *DelayQueue[T], load func(*ckpt.Reader) T) {
	q.seq = r.U64()
	n := r.U64()
	if r.Err() != nil {
		return
	}
	q.entries = q.entries[:0]
	for i := uint64(0); i < n; i++ {
		e := delayEntry[T]{readyAt: r.U64(), seq: r.U64()}
		e.item = load(r)
		if r.Err() != nil {
			return
		}
		q.entries = append(q.entries, e)
	}
}

// SaveState checkpoints the kernel's clock state. Tickers and hooks are
// structural (rebuilt by the system's Finalize) and are not saved; hooks
// fire whenever (now-phase)%period == 0, and Run re-arms each hook's
// next fire cycle from the clock, so that holds at any restored now.
func (k *Kernel) SaveState(w *ckpt.Writer) {
	w.U64(k.now)
	w.U64(k.skipped)
}

// RestoreState overlays the clock onto a freshly built kernel.
func (k *Kernel) RestoreState(r *ckpt.Reader) {
	k.now = r.U64()
	k.skipped = r.U64()
}
