package qos

import (
	"fmt"

	"pabst/internal/ckpt"
	"pabst/internal/mem"
)

// Ckpt implements ckpt.Walker: per-class weight, stride, thread count,
// and the demand-feedback accumulators, in class ID order. Names, IDs,
// and way allocations are structural (rebuilt from the metadata). The
// thread count is checked rather than overlaid: AttachCPU already rebuilt
// it during system construction, and a disagreement means the checkpoint
// describes a different attachment layout. The stride is checked too:
// loading re-derives every stride from the loaded weights, and an image
// with a zero weight (the next SetWeight would divide by it), weights
// whose lcm overflows, or a stored stride that is not the derived one
// (it would silently change every share) is corrupt.
func (r *Registry) Ckpt(c *ckpt.Codec) {
	if !c.Same(len(r.classes), "QoS classes") {
		return
	}
	var stored [mem.MaxClasses]uint64
	for i, cl := range r.classes {
		c.U64(&cl.Weight)
		stored[i] = cl.Stride
		c.U64(&stored[i])
		if !c.Same(cl.threads, "threads of class "+cl.Name) {
			return
		}
		c.U64(&cl.demandCur)
		c.U64(&cl.demandPrev)
		if c.Loading() && c.Err() == nil && cl.Weight == 0 {
			c.Fail(fmt.Errorf("%w: class %q has weight 0", ckpt.ErrCorrupt, cl.Name))
		}
	}
	if !c.Loading() || c.Err() != nil {
		return
	}
	if err := r.recomputeStrides(); err != nil {
		c.Fail(fmt.Errorf("%w: %v", ckpt.ErrCorrupt, err))
		return
	}
	for i, cl := range r.classes {
		if cl.Stride != stored[i] {
			c.Fail(fmt.Errorf("%w: class %q stores stride %d, its weight gives %d", ckpt.ErrCorrupt, cl.Name, stored[i], cl.Stride))
		}
	}
}
