package qos

import (
	"fmt"
	"math/bits"

	"pabst/internal/mem"
)

// WBCharge selects which class pays for a shared-cache writeback — the
// Section V-C design space. With exclusive cache partitions the demander
// and the owner coincide and the choice is moot; when classes share
// cache, the dynamic policies become unpredictable, which is exactly why
// the paper argues bandwidth QoS should be paired with cache-capacity
// QoS.
type WBCharge uint8

const (
	// ChargeDemander bills the class whose incoming request caused the
	// eviction (the paper's evaluation setting).
	ChargeDemander WBCharge = iota
	// ChargeOwner bills the class that allocated the evicted line.
	ChargeOwner
	// ChargeFixed bills a pre-determined class regardless of cause.
	ChargeFixed
)

func (w WBCharge) String() string {
	switch w {
	case ChargeDemander:
		return "demander"
	case ChargeOwner:
		return "owner"
	case ChargeFixed:
		return "fixed"
	default:
		return fmt.Sprintf("wbcharge(%d)", uint8(w))
	}
}

// Class describes one QoS class (the container software attaches threads,
// VMs, or containers to via the QoSID register).
type Class struct {
	ID     mem.ClassID
	Name   string
	Weight uint64 // proportional share weight (Eq. 1)
	Stride uint64 // inverse weight, recomputed on every weight change (Eq. 2)

	// L3Ways is the number of shared-cache ways exclusively allocated to
	// the class (the paper isolates classes in the cache with CAT-style
	// partitioning in all experiments).
	L3Ways int

	threads int // CPUs currently executing the class

	// Demand feedback for heterogeneous intra-class allocation (the
	// Section V-B extension): CPUs report how many misses they generated
	// each epoch; the previous epoch's class total is broadcast back.
	demandCur  uint64
	demandPrev uint64
}

// Threads returns the number of active CPUs executing the class.
func (c *Class) Threads() int { return c.threads }

// Registry holds every QoS class in the system. It is not safe for
// concurrent use; the simulator is single-threaded by design.
type Registry struct {
	classes []*Class
	byName  map[string]mem.ClassID
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]mem.ClassID)}
}

// Add creates a new class with the given share weight and L3 way
// allocation. Weights must be positive. Strides for all classes are
// recomputed so they remain exact integer inverses of the weights; if
// that stride vector overflows 64 bits, Add fails and the registry is
// unchanged.
func (r *Registry) Add(name string, weight uint64, l3Ways int) (*Class, error) {
	if weight == 0 {
		return nil, fmt.Errorf("qos: class %q: weight must be positive", name)
	}
	if len(r.classes) >= mem.MaxClasses {
		return nil, fmt.Errorf("qos: too many classes (max %d)", mem.MaxClasses)
	}
	if _, dup := r.byName[name]; dup {
		return nil, fmt.Errorf("qos: duplicate class name %q", name)
	}
	c := &Class{ID: mem.ClassID(len(r.classes)), Name: name, Weight: weight, L3Ways: l3Ways}
	r.classes = append(r.classes, c)
	if err := r.recomputeStrides(); err != nil {
		r.classes = r.classes[:c.ID]
		return nil, fmt.Errorf("qos: class %q: %w", name, err)
	}
	r.byName[name] = c.ID
	return c, nil
}

// MustAdd is Add for static experiment setup; it panics on error.
func (r *Registry) MustAdd(name string, weight uint64, l3Ways int) *Class {
	c, err := r.Add(name, weight, l3Ways)
	if err != nil {
		panic(err)
	}
	return c
}

// SetWeight changes a class's proportional share at run time (the
// software-controlled allocation knob). Strides of every class are
// recomputed; the governors pick up the new stride at their next epoch.
// A weight whose stride vector overflows 64 bits is refused and the
// registry is unchanged.
func (r *Registry) SetWeight(id mem.ClassID, weight uint64) error {
	if weight == 0 {
		return fmt.Errorf("qos: weight must be positive")
	}
	c := r.class(id)
	prev := c.Weight
	c.Weight = weight
	if err := r.recomputeStrides(); err != nil {
		c.Weight = prev
		return fmt.Errorf("qos: class %q: %w", c.Name, err)
	}
	return nil
}

// Lookup returns the class registered under name.
func (r *Registry) Lookup(name string) (*Class, bool) {
	id, ok := r.byName[name]
	if !ok {
		return nil, false
	}
	return r.classes[id], true
}

// Classes returns all registered classes in ID order. The returned slice
// must not be mutated.
func (r *Registry) Classes() []*Class { return r.classes }

// NumClasses returns the number of registered classes.
func (r *Registry) NumClasses() int { return len(r.classes) }

// Stride returns the current stride of a class. The governors and the
// arbiter call this every epoch / request so that software weight changes
// take effect immediately.
func (r *Registry) Stride(id mem.ClassID) uint64 { return r.class(id).Stride }

// Weight returns the current weight of a class.
func (r *Registry) Weight(id mem.ClassID) uint64 { return r.class(id).Weight }

// Threads returns the active CPU count of a class (threads_c in Eq. 4).
func (r *Registry) Threads(id mem.ClassID) int { return r.class(id).threads }

// Share returns the class's proportional share of total weight (Eq. 1).
func (r *Registry) Share(id mem.ClassID) float64 {
	var total uint64
	for _, c := range r.classes {
		total += c.Weight
	}
	if total == 0 {
		return 0
	}
	return float64(r.class(id).Weight) / float64(total)
}

// AttachCPU records that one more CPU is executing class id, mirroring the
// paper's broadcast update of active CPU counts on QoSID register writes.
func (r *Registry) AttachCPU(id mem.ClassID) { r.class(id).threads++ }

// ReportDemand accumulates a CPU's miss demand for the current epoch,
// mirroring the broadcast register the paper already assumes for thread
// counts.
func (r *Registry) ReportDemand(id mem.ClassID, misses uint64) {
	r.class(id).demandCur += misses
}

// RollDemand closes the epoch's demand accounting: the accumulated total
// becomes visible via Demand and the accumulator resets. The system
// calls this once per epoch, before governors run.
func (r *Registry) RollDemand() {
	for _, c := range r.classes {
		c.demandPrev = c.demandCur
		c.demandCur = 0
	}
}

// Demand returns the class's total reported miss demand for the previous
// epoch.
func (r *Registry) Demand(id mem.ClassID) uint64 { return r.class(id).demandPrev }

func (r *Registry) class(id mem.ClassID) *Class {
	if int(id) >= len(r.classes) {
		panic(fmt.Sprintf("qos: unknown class %d", id))
	}
	return r.classes[id]
}

// recomputeStrides assigns each class the smallest integer stride vector
// exactly proportional to the inverse weights: stride_i = L/weight_i
// where L = lcm(weights), then divides out the gcd of the strides. It
// fails, assigning nothing, when L does not fit in 64 bits.
func (r *Registry) recomputeStrides() error {
	l := uint64(1)
	for _, c := range r.classes {
		hi, lo := bits.Mul64(l/gcd(l, c.Weight), c.Weight)
		if hi != 0 {
			return fmt.Errorf("weight %d: the weights' least common multiple overflows 64 bits", c.Weight)
		}
		l = lo
	}
	g := uint64(0)
	for _, c := range r.classes {
		c.Stride = l / c.Weight
		g = gcd(g, c.Stride)
	}
	for _, c := range r.classes {
		c.Stride /= g
	}
	return nil
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
