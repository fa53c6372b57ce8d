package qos

import "pabst/internal/ckpt"

// Ckpt implements ckpt.Walker: per-class weight, stride, thread count,
// and the demand-feedback accumulators, in class ID order. Names, IDs,
// and way allocations are structural (part of the fingerprint). The
// thread count is checked rather than overlaid: AttachCPU already rebuilt
// it during system construction, and a disagreement means the checkpoint
// describes a different attachment layout.
func (r *Registry) Ckpt(c *ckpt.Codec) {
	if !c.Same(len(r.classes), "QoS classes") {
		return
	}
	for _, cl := range r.classes {
		c.U64(&cl.Weight)
		c.U64(&cl.Stride)
		if !c.Same(cl.threads, "threads of class "+cl.Name) {
			return
		}
		c.U64(&cl.demandCur)
		c.U64(&cl.demandPrev)
	}
}
