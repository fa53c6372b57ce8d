package workload

import (
	"cmp"
	"fmt"
	"math"

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
// (FilteredStream, Replayer) have no BuildSpec: a checkpoint of a system
// containing them is written but cannot be restored.
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

// argCounts is the number of arguments each kind's recipe carries.
var argCounts = map[string]int{"stream": 4, "chaser": 3, "periodic": 6, "bursty": 4, "spec": 2, "memcached": 8}

// FromBuildSpec reconstructs a generator from its recipe. Seed-dependent
// construction draws use a fixed seed — the caller overlays the real RNG
// state afterward. A recipe comes from a checkpoint image, so every
// argument a constructor would panic on or a generator would divide by is
// an error here: an empty region, a region smaller than its stride, no
// chains, a zero phase, a bad burst shape, and a count or gap beyond an
// int.
func FromBuildSpec(bs BuildSpec) (Generator, error) {
	n, ok := argCounts[bs.Kind]
	if !ok {
		return nil, fmt.Errorf("workload: unknown generator kind %q", bs.Kind)
	}
	if len(bs.U) != n {
		return nil, fmt.Errorf("workload: %s spec %q wants %d args, has %d", bs.Kind, bs.Name, n, len(bs.U))
	}
	u := bs.U
	region := func(i int) Region { return Region{Base: mem.Addr(u[i]), Size: u[i+1]} }
	ints := func(from, to int) bool { // the int arguments convert without wrapping
		for _, v := range u[from:to] {
			if v > math.MaxInt {
				return false
			}
		}
		return true
	}
	lines := region(0).Lines() > 0 // the generators that draw lines need one
	switch bs.Kind {
	case "stream":
		if u[1] >= cmp.Or(u[2], 128) {
			return NewStream(bs.Name, region(0), u[2], u[3] != 0), nil
		}
	case "chaser":
		if lines && u[2] > 0 && ints(2, 3) {
			return NewChaser(bs.Name, region(0), int(u[2]), 1), nil
		}
	case "periodic":
		if u[1] > 0 && u[3] > 0 && u[4] > 0 && u[5] > 0 {
			return NewPeriodicStream(bs.Name, region(0), region(2), u[4], u[5]), nil
		}
	case "bursty":
		if lines && u[2] > 0 && ints(2, 4) {
			return NewBursty(bs.Name, region(0), int(u[2]), int(u[3]), 1), nil
		}
	case "spec":
		p, ok := SpecByName(bs.Name)
		if !ok {
			return nil, fmt.Errorf("workload: unknown spec proxy %q", bs.Name)
		}
		return NewSpec(p, region(0), 1)
	case "memcached":
		if ints(2, 7) { // NewMemcached checks the rest
			p := MemcachedParams{
				ChaseOps: int(u[2]), CopyOps: int(u[3]), ChaseGap: int(u[4]),
				CopyGap: int(u[5]), ThinkGap: int(u[6]), Insts: u[7],
			}
			return NewMemcached(p, region(0), 1)
		}
	}
	return nil, fmt.Errorf("workload: %s spec %q: arguments %v describe no generator", bs.Kind, bs.Name, u)
}
