package workload

import "fmt"

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
