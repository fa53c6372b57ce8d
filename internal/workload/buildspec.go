package workload

import (
	"fmt"

	"pabst/internal/mem"
)

// BuildSpec is a self-describing construction recipe for a generator:
// enough to rebuild a structurally identical instance whose runtime
// state (RNG cursors, positions, histograms) is then overlaid from a
// checkpoint. Kind selects the constructor, Name is the generator's
// display name, and U carries the numeric arguments in a kind-specific
// order. It round-trips through JSON inside the checkpoint header.
//
// Generators built from closures or externally supplied traces
// (FilteredStream, Replayer) have no BuildSpec; checkpoints of
// systems containing them can only be restored through a caller-supplied
// builder that reconstructs those generators itself.
type BuildSpec struct {
	Kind string   `json:"kind"`
	Name string   `json:"name"`
	U    []uint64 `json:"u,omitempty"`
}

// Describable is implemented by generators that can state their own
// construction recipe.
type Describable interface {
	BuildSpec() BuildSpec
}

// BuildSpec implements Describable.
func (s *Stream) BuildSpec() BuildSpec {
	wr := uint64(0)
	if s.write {
		wr = 1
	}
	return BuildSpec{Kind: "stream", Name: s.name,
		U: []uint64{uint64(s.region.Base), s.region.Size, s.stride, wr}}
}

// BuildSpec implements Describable. The construction seed is not
// recorded: the RNG cursor is runtime state and is overlaid on restore,
// making the seed used to rebuild irrelevant.
func (c *Chaser) BuildSpec() BuildSpec {
	return BuildSpec{Kind: "chaser", Name: c.name,
		U: []uint64{uint64(c.region.Base), c.region.Size, uint64(c.chains)}}
}

// BuildSpec implements Describable.
func (p *PeriodicStream) BuildSpec() BuildSpec {
	return BuildSpec{Kind: "periodic", Name: p.name,
		U: []uint64{uint64(p.ddr.Base), p.ddr.Size, uint64(p.cached.Base), p.cached.Size, p.ddrCycles, p.cacheCycles}}
}

// BuildSpec implements Describable.
func (b *Bursty) BuildSpec() BuildSpec {
	return BuildSpec{Kind: "bursty", Name: b.name,
		U: []uint64{uint64(b.region.Base), b.region.Size, uint64(b.burstOps), uint64(b.idleGap)}}
}

// BuildSpec implements Describable: the suite entry name plus the
// original whole region (hot + cold were carved from it at build time).
func (s *Spec) BuildSpec() BuildSpec {
	return BuildSpec{Kind: "spec", Name: s.p.Name,
		U: []uint64{uint64(s.hot.Base), s.hot.Size + s.cold.Size}}
}

// BuildSpec implements Describable.
func (m *Memcached) BuildSpec() BuildSpec {
	return BuildSpec{Kind: "memcached", Name: "memcached",
		U: []uint64{uint64(m.region.Base), m.region.Size,
			uint64(m.p.ChaseOps), uint64(m.p.CopyOps), uint64(m.p.ChaseGap),
			uint64(m.p.CopyGap), uint64(m.p.ThinkGap), m.p.Insts}}
}

func wantArgs(bs BuildSpec, n int) error {
	if len(bs.U) != n {
		return fmt.Errorf("workload: %s spec %q wants %d args, has %d", bs.Kind, bs.Name, n, len(bs.U))
	}
	return nil
}

// FromBuildSpec reconstructs a generator from its recipe. Seed-dependent
// construction draws use a fixed seed — the caller overlays the real RNG
// state afterward.
func FromBuildSpec(bs BuildSpec) (Generator, error) {
	switch bs.Kind {
	case "stream":
		if err := wantArgs(bs, 4); err != nil {
			return nil, err
		}
		return NewStream(bs.Name, Region{Base: mem.Addr(bs.U[0]), Size: bs.U[1]}, bs.U[2], bs.U[3] != 0), nil
	case "chaser":
		if err := wantArgs(bs, 3); err != nil {
			return nil, err
		}
		return NewChaser(bs.Name, Region{Base: mem.Addr(bs.U[0]), Size: bs.U[1]}, int(bs.U[2]), 1), nil
	case "periodic":
		if err := wantArgs(bs, 6); err != nil {
			return nil, err
		}
		return NewPeriodicStream(bs.Name,
			Region{Base: mem.Addr(bs.U[0]), Size: bs.U[1]},
			Region{Base: mem.Addr(bs.U[2]), Size: bs.U[3]},
			bs.U[4], bs.U[5]), nil
	case "bursty":
		if err := wantArgs(bs, 4); err != nil {
			return nil, err
		}
		return NewBursty(bs.Name, Region{Base: mem.Addr(bs.U[0]), Size: bs.U[1]}, int(bs.U[2]), int(bs.U[3]), 1), nil
	case "spec":
		if err := wantArgs(bs, 2); err != nil {
			return nil, err
		}
		p, ok := SpecByName(bs.Name)
		if !ok {
			return nil, fmt.Errorf("workload: unknown spec proxy %q", bs.Name)
		}
		return NewSpec(p, Region{Base: mem.Addr(bs.U[0]), Size: bs.U[1]}, 1)
	case "memcached":
		if err := wantArgs(bs, 8); err != nil {
			return nil, err
		}
		p := MemcachedParams{
			ChaseOps: int(bs.U[2]), CopyOps: int(bs.U[3]), ChaseGap: int(bs.U[4]),
			CopyGap: int(bs.U[5]), ThinkGap: int(bs.U[6]), Insts: bs.U[7],
		}
		return NewMemcached(p, Region{Base: mem.Addr(bs.U[0]), Size: bs.U[1]}, 1)
	default:
		return nil, fmt.Errorf("workload: unknown generator kind %q", bs.Kind)
	}
}
