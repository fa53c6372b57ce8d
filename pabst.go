// Package pabst is a library-grade reproduction of "PABST: Proportionally
// Allocated Bandwidth at the Source and Target" (Hower, Cain, Waldspurger,
// HPCA 2017): a software-controlled memory-bandwidth QoS mechanism that
// throttles request rates at the source (a governor at each private cache)
// and prioritizes requests at the target (an earliest-virtual-deadline
// arbiter in each memory controller), both driven by the same per-class
// proportional share.
//
// The package bundles the mechanism together with the full simulated
// substrate it runs on — cores, caches, mesh, and banked DDR — behind a
// builder API:
//
//	cfg := pabst.Default32Config()
//	b := pabst.NewBuilder(cfg, pabst.ModePABST)
//	hi := b.AddClass("latency-critical", 7, 8)
//	lo := b.AddClass("batch", 3, 8)
//	for i := 0; i < 16; i++ {
//	    b.Attach(i, hi, pabst.Stream("hot", pabst.TileRegion(i), 128, false))
//	    b.Attach(16+i, lo, pabst.Stream("bg", pabst.TileRegion(16+i), 128, false))
//	}
//	sys, err := b.Build()
//	...
//	sys.Warmup(200_000)
//	sys.Run(500_000)
//	m := sys.Metrics()
//	fmt.Printf("shares: %.2f / %.2f\n", m.ShareOf(hi), m.ShareOf(lo))
//
// The mode selects the mechanism — which halves of PABST are active, or
// any other registered (source, target) policy pair — enabling the
// paper's source-only and target-only baselines for comparison.
package pabst

import (
	"fmt"

	"pabst/internal/config"
	"pabst/internal/fault"
	"pabst/internal/mem"
	"pabst/internal/qos"
	"pabst/internal/qospolicy"
	"pabst/internal/soc"
	"pabst/internal/stats"
	"pabst/internal/workload"
)

// Mode selects the mechanism a system runs: a (source, target) pair of
// registered policy names. DESIGN.md, "Selecting a mechanism", has the
// parser's accepted spellings and the precedence rule.
type Mode = qospolicy.Pair

// The five preset mechanisms: which half of PABST is on, plus the
// static-limiter baseline.
var (
	// ModeNone disables bandwidth QoS entirely (baseline): none+fcfs.
	ModeNone = qospolicy.None
	// ModeSourceOnly enables only the source governors: pabst+fcfs.
	ModeSourceOnly = qospolicy.SourceOnly
	// ModeTargetOnly enables only the target priority arbiters:
	// none+pabst.
	ModeTargetOnly = qospolicy.TargetOnly
	// ModePABST enables both halves (the paper's mechanism):
	// pabst+pabst.
	ModePABST = qospolicy.PABST
	// ModeStaticSource is the related-work baseline: a fixed,
	// non-work-conserving source rate limit, no target priority:
	// static+fcfs.
	ModeStaticSource = qospolicy.StaticSource
)

// ParseMode reads a mechanism selector: "source+target" (either half
// may be empty to select one side only) or a preset name ("none",
// "source-only", "target-only", "pabst", "static-source").
func ParseMode(s string) (Mode, error) { return qospolicy.ParsePair(s) }

// PolicyInfo describes one registered QoS policy plugin: its registry
// name, kind ("source" or "target"), one-line description, consumed
// parameters, and paper citation.
type PolicyInfo = qospolicy.Info

// Policies returns every registered policy plugin — source policies
// first, then target policies, each sorted by name.
func Policies() []PolicyInfo { return qospolicy.Describe() }

// SourcePolicies lists registered source-policy names, sorted.
func SourcePolicies() []string { return qospolicy.SourceNames() }

// TargetPolicies lists registered target-policy names, sorted.
func TargetPolicies() []string { return qospolicy.TargetNames() }

// ClassID identifies a QoS class.
type ClassID = mem.ClassID

// WBCharge selects which class pays for shared-cache writebacks
// (Section V-C of the paper).
type WBCharge = qos.WBCharge

// Writeback accounting policies.
const (
	// ChargeDemander bills the class whose request caused the eviction
	// (the paper's evaluation setting, and the default).
	ChargeDemander = qos.ChargeDemander
	// ChargeOwner bills the class that allocated the evicted line.
	ChargeOwner = qos.ChargeOwner
	// ChargeFixed bills SystemConfig.WBFixedClass regardless of cause.
	ChargeFixed = qos.ChargeFixed
)

// SystemConfig describes the simulated machine (Table III of the paper).
type SystemConfig = config.System

// Default32Config returns the paper's 32-core, four-channel system.
func Default32Config() SystemConfig { return config.Default32() }

// Scaled8Config returns the 4x-scaled 8-core system used for the
// memcached experiment.
func Scaled8Config() SystemConfig { return config.Scaled8() }

// MeshScaledConfig returns a big-machine variant of the paper's tile: a
// cols×rows mesh with the same per-tile hierarchy, memory channels
// scaled with the tile count, and hierarchical SAT gossip so the epoch
// heartbeat does not assume a single-hop broadcast at mesh scale. It is
// the configuration of the benchmark's idle256 workload and of
// TestEventKernelMeshScaled.
func MeshScaledConfig(cols, rows int) SystemConfig { return config.MeshScaled(cols, rows) }

// FaultPlan describes deterministic fault injection into the SAT
// broadcast, the DRAM controllers, and the NoC. Assign one to
// SystemConfig.Faults; a nil plan injects nothing and costs nothing.
type FaultPlan = fault.Plan

// LoadFaultPlan resolves a preset name (see FaultPresets). Any other
// name is config.ErrInvalid, naming the presets; a custom plan is a
// FaultPlan value assigned to SystemConfig.Faults.
func LoadFaultPlan(name string) (*FaultPlan, error) {
	p, err := fault.Preset(name)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", config.ErrInvalid, err)
	}
	return &p, nil
}

// FaultPresets lists the built-in fault-plan names.
func FaultPresets() []string { return fault.PresetNames() }

// FaultReport summarizes injected faults and the governors' degraded-
// signal behavior (watchdog holds, decays, resync progress, divergence).
type FaultReport = soc.FaultReport

// Region is a private address range for a workload thread.
type Region = workload.Region

// TileRegion returns a disjoint 256 MiB region for a tile's thread;
// experiments use it to keep footprints from aliasing (large enough for
// the biggest SPEC proxy footprint).
func TileRegion(tile int) Region {
	return Region{Base: mem.Addr(uint64(tile+1) << 32), Size: 256 << 20}
}

// Generator produces a thread's memory-op stream.
type Generator = workload.Generator

// Stream returns the bandwidth-limited streaming microbenchmark.
func Stream(name string, r Region, strideBytes uint64, write bool) Generator {
	return workload.NewStream(name, r, strideBytes, write)
}

// Chaser returns the latency-limited pointer-chasing microbenchmark with
// the given number of independent chains (the paper uses 4).
func Chaser(name string, r Region, chains int, seed uint64) Generator {
	return workload.NewChaser(name, r, chains, seed)
}

// Periodic returns a streamer alternating between a memory-resident phase
// of ddrCycles and a cache-resident phase of cacheCycles, wall-clock
// synchronized across all threads of the class.
func Periodic(name string, ddr, cached Region, ddrCycles, cacheCycles uint64) Generator {
	return workload.NewPeriodicStream(name, ddr, cached, ddrCycles, cacheCycles)
}

// BurstyTraffic returns a clustered-traffic generator: bursts of
// burstOps independent line reads separated by idleGap compute cycles.
// The returned value records per-burst completion times through its
// BurstTimes histogram.
func BurstyTraffic(name string, r Region, burstOps, idleGap int, seed uint64) *workload.Bursty {
	return workload.NewBursty(name, r, burstOps, idleGap, seed)
}

// FilteredStream returns a streamer restricted to addresses the predicate
// accepts — the building block for deliberately channel-skewed traffic in
// the per-controller regulation experiments.
func FilteredStream(name string, r Region, strideBytes uint64, write bool, keep func(mem.Addr) bool) Generator {
	return workload.NewFilteredStream(name, r, strideBytes, write, keep)
}

// Addr is a physical address (for FilteredStream predicates).
type Addr = mem.Addr

// SpecProxy returns the synthetic proxy for one of the paper's eight
// SPEC CPU 2006 workloads (GemsFDTD, lbm, libquantum, mcf, milc, omnetpp,
// soplex, sphinx3).
func SpecProxy(name string, r Region, seed uint64) (Generator, error) {
	p, ok := workload.SpecByName(name)
	if !ok {
		return nil, fmt.Errorf("pabst: unknown SPEC workload %q", name)
	}
	return workload.NewSpec(p, r, seed)
}

// SpecNames lists the SPEC proxy workloads in suite order.
func SpecNames() []string {
	var names []string
	for _, p := range workload.SpecSuite() {
		names = append(names, p.Name)
	}
	return names
}

// MemcachedServer returns the transaction-serving proxy; its service-time
// histogram is retrievable through ServiceTimes on the returned value.
func MemcachedServer(r Region, seed uint64) *workload.Memcached {
	m, err := workload.NewMemcached(workload.DefaultMemcachedParams(), r, seed)
	if err != nil {
		panic(err) // defaults are always valid
	}
	return m
}

// Hist is a log-scaled latency histogram. A copied Hist shares its
// buckets with the original; Merge into a zero Hist to take a private
// copy.
type Hist = stats.Hist

// Metrics summarizes a measurement window.
type Metrics = soc.Metrics

// Series is a per-class bandwidth time series.
type Series = stats.Series

// Builder assembles a system: classes, tile placements, then Build.
type Builder struct {
	cfg  SystemConfig
	mode Mode
	reg  *qos.Registry

	observer    *Observer
	attachments []attachment
	err         error
}

type attachment struct {
	tile  int
	class ClassID
	gen   Generator
}

// Option configures a Builder at construction. Options replace the
// config-field poking previously duplicated across commands and
// examples; they apply in order, after cfg is copied into the builder.
type Option func(*Builder)

// WithKernel is the differential-oracle hook. "" and "event" run the
// event-driven kernel, the only production path; "cycle" runs the
// reference loop that visits every component every cycle — identical
// outcomes, several times slower at every machine size — for tests and
// benchmarks that check the event kernel against it. Unknown names
// surface as errors at Build.
func WithKernel(kernel string) Option {
	return func(b *Builder) { b.cfg.Kernel = kernel }
}

// WithPolicy overrides halves of the builder's mode by registry name.
// An empty string keeps that side, so WithPolicy("", "dpq") swaps only
// the target half. Unknown names surface as errors at Build.
func WithPolicy(source, target string) Option {
	return func(b *Builder) { b.mode = Mode{Source: source, Target: target}.Over(b.mode) }
}

// WithObserver arms epoch-boundary trace emission into o. A nil
// observer keeps tracing off (the zero-overhead default).
func WithObserver(o *Observer) Option {
	return func(b *Builder) { b.observer = o }
}

// NewBuilder starts a system description. A side the mode leaves empty
// runs unregulated (the zero Mode is ModeNone). Options, if any, are
// applied immediately.
func NewBuilder(cfg SystemConfig, mode Mode, opts ...Option) *Builder {
	b := &Builder{cfg: cfg, mode: mode.Over(ModeNone), reg: qos.NewRegistry()}
	for _, o := range opts {
		o(b)
	}
	return b
}

// AddClass registers a QoS class with a proportional-share weight and an
// exclusive L3 way allocation, returning its ID. Errors surface at Build.
func (b *Builder) AddClass(name string, weight uint64, l3Ways int) ClassID {
	c, err := b.reg.Add(name, weight, l3Ways)
	if err != nil {
		if b.err == nil {
			b.err = err
		}
		return 0
	}
	return c.ID
}

// Attach places a generator on a tile under a class.
func (b *Builder) Attach(tile int, class ClassID, gen Generator) *Builder {
	b.attachments = append(b.attachments, attachment{tile, class, gen})
	return b
}

// Build validates and wires the system.
func (b *Builder) Build() (*System, error) {
	if b.err != nil {
		return nil, b.err
	}
	inner, err := soc.New(b.cfg, b.reg, b.mode)
	if err != nil {
		return nil, err
	}
	for _, a := range b.attachments {
		if err := inner.Attach(a.tile, a.class, a.gen); err != nil {
			return nil, err
		}
	}
	if b.observer != nil {
		if err := inner.SetObserver(b.observer); err != nil {
			return nil, err
		}
	}
	if err := inner.Finalize(); err != nil {
		return nil, err
	}
	return &System{inner: inner, reg: b.reg}, nil
}

// System is a runnable simulated machine.
type System struct {
	inner *soc.System
	reg   *qos.Registry
}

// Run advances the simulation by cycles.
func (s *System) Run(cycles uint64) { s.inner.Run(cycles) }

// Close ends the system's life: it stays readable (Metrics, Series, ...)
// but must not Run again. The kernel holds no goroutines or files, so
// there is nothing to release; the method remains because the frozen
// repository benchmark (bench/) calls it.
func (s *System) Close() {}

// Warmup runs cycles and then resets measurement state, so Metrics
// reflects steady-state behavior only.
func (s *System) Warmup(cycles uint64) { s.inner.Warmup(cycles) }

// ResetStats starts a new measurement window.
func (s *System) ResetStats() { s.inner.ResetStats() }

// Now returns the current cycle.
func (s *System) Now() uint64 { return s.inner.Now() }

// Metrics returns the current window's summary.
func (s *System) Metrics() Metrics { return s.inner.Metrics() }

// Series returns the continuously sampled per-class bandwidth series.
func (s *System) Series() *Series { return s.inner.Series() }

// Snapshot captures the system's observable state — window metrics plus
// per-class, per-tile, and per-controller detail — in one coherent
// value: the only per-class, per-tile and per-controller read-out.
func (s *System) Snapshot() Snapshot { return s.inner.Snapshot() }

// SetWeight changes a class's proportional share at run time (the
// software policy knob); governors and arbiters honor it at the next
// epoch / request.
func (s *System) SetWeight(class ClassID, weight uint64) error {
	return s.reg.SetWeight(class, weight)
}

// FaultReport returns the fault-injection and degradation summary for
// the system lifetime (zero-valued with Active=false when no plan is
// configured).
func (s *System) FaultReport() FaultReport { return s.inner.FaultReport() }

// ClassTailLatency returns the p-th percentile (0 < p <= 100) of a
// class's end-to-end L2-miss latency in cycles over the current
// measurement window (histogram resolution ~6%).
func (s *System) ClassTailLatency(class ClassID, p float64) uint64 {
	return s.inner.ClassTailLatency(class, p)
}

// Config returns the system's configuration.
func (s *System) Config() SystemConfig { return s.inner.Config() }

// PolicyPair returns the resolved (source, target) policy names the
// system was wired with.
func (s *System) PolicyPair() (source, target string) {
	p := s.inner.Pair()
	return p.Source, p.Target
}
