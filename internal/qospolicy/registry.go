package qospolicy

import (
	"fmt"
	"sort"

	"pabst/internal/dram"
	"pabst/internal/mem"
	"pabst/internal/pabst"
	"pabst/internal/qos"
	"pabst/internal/regulate"
)

// SourceEnv carries everything a source-policy factory may need to build
// one tile's regulator. All fields are structural configuration — a
// factory must not retain mutable aliases beyond Reg (shared by design:
// strides and shares are read per epoch).
type SourceEnv struct {
	// Params are the mechanism tunables (epoch length, burst credit,
	// scale factor, ...). Policies reuse the knobs that map onto their
	// scheme and ignore the rest.
	Params pabst.Params
	// Reg resolves class weights, strides, shares, and thread counts.
	Reg *qos.Registry
	// Class is the QoS class running on the tile.
	Class mem.ClassID
	// NumMCs is the memory-controller (channel) count.
	NumMCs int
	// MCOf is the address-to-channel hash. It duplicates Packet.MC,
	// which is what the per-channel regulators here read.
	MCOf func(mem.Addr) int
	// PeakBytesPerCycle is the aggregate DRAM data-bus limit.
	PeakBytesPerCycle float64
}

// TargetEnv carries what a target-policy factory needs to build one
// memory controller's arbiter.
type TargetEnv struct {
	// Params are the mechanism tunables (Slack doubles as the DPQ
	// deadline scale).
	Params pabst.Params
	// Reg resolves class strides for deadline assignment.
	Reg *qos.Registry
}

// Info describes one registered policy for CLIs and generated docs.
type Info struct {
	// Name is the registry key ("pabst", "bankreg", ...).
	Name string
	// Kind is "source" or "target".
	Kind string
	// Desc is a one-line description of the mechanism.
	Desc string
	// Params names the Params knobs the mechanism consumes.
	Params string
	// Cite is the paper the mechanism reproduces or adapts.
	Cite string
}

type sourceSpec struct {
	info  Info
	build func(SourceEnv) regulate.Source
}

type targetSpec struct {
	info Info
	// build returns the front-end ordering plus the per-controller
	// arbiter (nil for arbiter-free orderings like plain FCFS).
	build func(TargetEnv) (dram.ReadSched, dram.Arbiter)
}

var (
	sources = map[string]sourceSpec{}
	targets = map[string]targetSpec{}
)

func registerSource(info Info, build func(SourceEnv) regulate.Source) {
	info.Kind = "source"
	if _, dup := sources[info.Name]; dup {
		panic("qospolicy: duplicate source policy " + info.Name)
	}
	sources[info.Name] = sourceSpec{info: info, build: build}
}

func registerTarget(info Info, build func(TargetEnv) (dram.ReadSched, dram.Arbiter)) {
	info.Kind = "target"
	if _, dup := targets[info.Name]; dup {
		panic("qospolicy: duplicate target policy " + info.Name)
	}
	targets[info.Name] = targetSpec{info: info, build: build}
}

// NewSource builds the named source policy for one tile.
func NewSource(name string, env SourceEnv) (regulate.Source, error) {
	s, ok := sources[name]
	if !ok {
		return nil, fmt.Errorf("qospolicy: unknown source policy %q (have %v)", name, SourceNames())
	}
	return s.build(env), nil
}

// NewTarget builds the named target policy for one memory controller.
func NewTarget(name string, env TargetEnv) (dram.ReadSched, dram.Arbiter, error) {
	t, ok := targets[name]
	if !ok {
		return dram.SchedFCFS, nil, fmt.Errorf("qospolicy: unknown target policy %q (have %v)", name, TargetNames())
	}
	sched, arb := t.build(env)
	return sched, arb, nil
}

// ValidSource reports whether name is a registered source policy.
func ValidSource(name string) bool { _, ok := sources[name]; return ok }

// ValidTarget reports whether name is a registered target policy.
func ValidTarget(name string) bool { _, ok := targets[name]; return ok }

// SourceNames lists registered source policies, sorted.
func SourceNames() []string {
	names := make([]string, 0, len(sources))
	for n := range sources {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TargetNames lists registered target policies, sorted.
func TargetNames() []string {
	names := make([]string, 0, len(targets))
	for n := range targets {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Describe returns every registered policy — sources first, then
// targets, each sorted by name — for -list-policies and the generated
// policy reference.
func Describe() []Info {
	var out []Info
	for _, n := range SourceNames() {
		out = append(out, sources[n].info)
	}
	for _, n := range TargetNames() {
		out = append(out, targets[n].info)
	}
	return out
}
