package workload

import "fmt"

// Recorder wraps a generator and captures every op it emits, so a
// synthetic workload can be frozen into an in-memory trace a Replayer
// plays back (regression pinning without the generator's parameters).
type Recorder struct {
	inner Generator
	ops   []Op
	limit int
}

// NewRecorder wraps gen, keeping at most limit recorded ops (0 means
// unlimited — beware memory).
func NewRecorder(gen Generator, limit int) *Recorder {
	if gen == nil {
		panic("workload: nil generator")
	}
	return &Recorder{inner: gen, limit: limit}
}

// Name implements Generator.
func (r *Recorder) Name() string { return r.inner.Name() + "+rec" }

// Next implements Generator.
func (r *Recorder) Next(op *Op) {
	r.inner.Next(op)
	if r.limit == 0 || len(r.ops) < r.limit {
		r.ops = append(r.ops, *op)
	}
}

// Trace returns the recorded ops.
func (r *Recorder) Trace() []Op { return r.ops }

// Replayer replays a fixed op sequence, looping forever.
type Replayer struct {
	name string
	ops  []Op
	i    int
}

// NewReplayer builds a generator replaying ops in a loop.
func NewReplayer(name string, ops []Op) (*Replayer, error) {
	if len(ops) == 0 {
		return nil, fmt.Errorf("workload: empty trace")
	}
	return &Replayer{name: name, ops: ops}, nil
}

// Name implements Generator.
func (r *Replayer) Name() string { return r.name }

// Next implements Generator.
func (r *Replayer) Next(op *Op) {
	*op = r.ops[r.i]
	r.i = (r.i + 1) % len(r.ops)
}
