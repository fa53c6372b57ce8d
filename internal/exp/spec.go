package exp

import (
	"context"
	"crypto/sha256"
	"fmt"
	"sort"

	"pabst"
	"pabst/internal/config"
	"pabst/internal/dram"
	"pabst/internal/soc"
	"pabst/internal/twin"
)

// paramDef is one named, serializable configuration override. The
// registry is the full set of sweepable design parameters from
// DESIGN.md; the ablation axes pabstsim prints (ParamSweeps) and the
// sweep service's job specs both resolve through it, so a job submitted
// over REST and a CLI sweep point with the same name/value produce
// bit-identical machines.
type paramDef struct {
	desc string
	set  func(*pabst.SystemConfig, uint64)
	// flag marks an on/off parameter: SetParam accepts only 0 and 1, so
	// one machine has one spelling and one spec fingerprint.
	flag bool
}

var paramRegistry = map[string]paramDef{
	"epoch": {desc: "governor epoch length (cycles)",
		set: func(c *pabst.SystemConfig, v uint64) { c.PABST.EpochCycles = v }},
	"scalef": {desc: "rate scale factor F (Eq. 3)",
		set: func(c *pabst.SystemConfig, v uint64) { c.PABST.ScaleF = v }},
	"burst": {desc: "pacer burst credit (requests)",
		set: func(c *pabst.SystemConfig, v uint64) { c.PABST.BurstCredit = int(v) }},
	"slack": {desc: "arbiter deadline slack (virtual ticks)",
		set: func(c *pabst.SystemConfig, v uint64) { c.PABST.Slack = v }},
	"queue": {desc: "MC front-end queue depth (write watermarks scale as 3/4 and 1/4)",
		set: func(c *pabst.SystemConfig, v uint64) {
			c.DRAM.FrontReadQ = int(v)
			c.DRAM.FrontWriteQ = int(v)
		}},
	"page": {desc: "DRAM page policy (0 = closed, 1 = open)",
		set: func(c *pabst.SystemConfig, v uint64) {
			if v == 1 {
				c.DRAM.Policy = dram.OpenPage
			} else {
				c.DRAM.Policy = dram.ClosedPage
			}
		}, flag: true},
	"inertia": {desc: "epochs of stability before the gain grows",
		set: func(c *pabst.SystemConfig, v uint64) { c.PABST.Inertia = int(v) }},
	"permc": {desc: "per-MC governors (0 = global wired-OR SAT, 1 = per-controller)",
		set: func(c *pabst.SystemConfig, v uint64) { c.PABST.PerMCGovernors = v == 1 }, flag: true},
	"hetero": {desc: "heterogeneous intra-class thread allocation (Section V-B demand feedback)",
		set: func(c *pabst.SystemConfig, v uint64) { c.PABST.HeterogeneousThreads = v == 1 }, flag: true},
	"noc": {desc: "contention-modeled router mesh (0 = latency-only fabric)",
		set: func(c *pabst.SystemConfig, v uint64) { c.ModelNoC = v == 1 }, flag: true},
	"nocflits": {desc: "flits per data message on the modeled mesh (link provisioning)",
		set: func(c *pabst.SystemConfig, v uint64) { c.NoCNet.DataFlits = int(v) }},
}

// ParamNames lists the sweepable parameter names, sorted.
func ParamNames() []string {
	names := make([]string, 0, len(paramRegistry))
	for n := range paramRegistry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// SetParam applies one named override to a system configuration. An
// unknown name, or a flag value other than 0 or 1, is an error wrapping
// config.ErrInvalid.
func SetParam(cfg *pabst.SystemConfig, name string, v uint64) error {
	d, ok := paramRegistry[name]
	if !ok {
		return fmt.Errorf("%w: unknown sweep parameter %q (have %v)",
			config.ErrInvalid, name, ParamNames())
	}
	if d.flag && v > 1 {
		return fmt.Errorf("%w: sweep parameter %q is 0 or 1, got %d", config.ErrInvalid, name, v)
	}
	d.set(cfg, v)
	return nil
}

// paramAxis is one ablation axis: the values a design parameter takes
// on the canonical 7:3 stream mix.
type paramAxis struct {
	param  string
	values []uint64
	labels []string // row labels; nil renders the values in decimal
	chaser bool     // also run the chaser mix, where the arbiter matters most
}

var paramAxes = []paramAxis{
	{param: "epoch", values: []uint64{500, 1000, 2000, 5000, 10000, 20000}},
	{param: "scalef", values: []uint64{16, 64, 256, 1024, 4096}},
	{param: "burst", values: []uint64{1, 4, 16, 64}},
	{param: "slack", values: []uint64{8, 32, 128, 512, 4096}, chaser: true},
	{param: "queue", values: []uint64{8, 16, 32, 64}},
	{param: "page", values: []uint64{0, 1}, labels: []string{"closed", "open"}},
	{param: "inertia", values: []uint64{0, 1, 3, 6, 10}},
	{param: "permc", values: []uint64{0, 1}, labels: []string{"global", "per-mc"}},
}

// ParamSweeps returns the ablation axes as experiments named
// sweep-<param>, in DESIGN.md's order. They are not registered: an axis
// is a table of one parameter's values, not a paper figure, so pabstsim
// runs one only by name and "all" leaves them out.
func ParamSweeps() []Experiment {
	out := make([]Experiment, len(paramAxes))
	for i, ax := range paramAxes {
		desc := paramRegistry[ax.param].desc
		per := 1 // specs per value: the stream mix, then the chaser mix
		if ax.chaser {
			per = 2
		}
		out[i] = &expDef{
			name: "sweep-" + ax.param,
			desc: desc,
			spec: func(scale string) []RunSpec {
				var specs []RunSpec
				for _, v := range ax.values {
					params := map[string]uint64{ax.param: v}
					specs = append(specs, RunSpec{Bench: BenchStreams, Scale: scale, Params: params})
					if ax.chaser {
						specs = append(specs, RunSpec{Bench: BenchChaser, Scale: scale, Params: params})
					}
				}
				return specs
			},
			reduce: func(specs []RunSpec, results []RunResult) (*Table, error) {
				t := &Table{
					Title:   fmt.Sprintf("sweep %s: %s", ax.param, desc),
					Columns: []string{"share-hi", "err-%", "total-B/cyc"},
				}
				if ax.chaser {
					t.Columns = append(t.Columns, "chaser-share")
				}
				entitled := BenchEntitledHi(BenchStreams)
				for i, v := range ax.values {
					r := results[i*per]
					row := Row{Label: fmt.Sprint(v), Values: map[string]float64{
						"share-hi":    r.ShareHi,
						"err-%":       abs(r.ShareHi-entitled) / entitled * 100,
						"total-B/cyc": r.TotalBPC,
					}}
					if ax.labels != nil {
						row.Label = ax.labels[i]
					}
					if ax.chaser {
						row.Values["chaser-share"] = results[i*per+1].ShareHi
					}
					t.Rows = append(t.Rows, row)
				}
				return t, nil
			},
		}
	}
	return out
}

// ScaleByName resolves the built-in experiment scales.
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "quick":
		return Quick(), nil
	case "full":
		return Full(), nil
	default:
		return Scale{}, fmt.Errorf("%w: unknown scale %q (quick or full)", config.ErrInvalid, name)
	}
}

// FaultPresetsAt lists, in pabst.FaultPresets order, the fault presets
// whose plan validates at the scale's epoch: the ones a faulted run at
// that scale can name. A preset that lags a heartbeat past the epoch
// (sat-delay at quick) is left out.
func FaultPresetsAt(sc Scale) []string {
	var out []string
	for _, name := range pabst.FaultPresets() {
		if plan, err := pabst.LoadFaultPlan(name); err == nil && plan.Validate(sc.Epoch) == nil {
			out = append(out, name)
		}
	}
	return out
}

// Exec carries the environment a run executes under: how scale names
// resolve and which results are already known. None of it changes
// simulated outcomes.
type Exec struct {
	// Scales optionally overrides scale-name resolution (tests register
	// tiny scales); nil falls back to ScaleByName.
	Scales map[string]Scale
	// Results, when non-nil, is the result cache: Run answers a spec
	// whose fingerprint the cache holds with the stored result, before
	// building or warming a machine, and stores every run that
	// completes its whole measure window. A fingerprint names a scale,
	// not what the name resolves to, so share one cache only among
	// Execs whose Scales resolve each name alike. nil always simulates.
	Results *RunCache
}

// Scale resolves a scale name under this environment.
func (ex Exec) Scale(name string) (Scale, error) {
	if sc, ok := ex.Scales[name]; ok {
		return sc, nil
	}
	return ScaleByName(name)
}

// Benchmark names understood by RunSpec (see benchRegistry for the full
// catalog, including the workload-parameterized SPEC benches).
const (
	// BenchStreams is the canonical 7:3 allocation between two 16-core
	// read-stream classes (the Figure 5 machine).
	BenchStreams = "streams"
	// BenchChaser gives a 3:1 high share to latency-sensitive pointer
	// chasers against a background write-stream class.
	BenchChaser = "chaser"
	// BenchWStreams is the 7:3 write-stream mix of the cross-policy
	// Pareto harness; Load sets the active tiles per class.
	BenchWStreams = "wstreams"
	// BenchWStreams31 is the Figure 1 stream+stream cell: two
	// write-stream classes at a 3:1 allocation.
	BenchWStreams31 = "wstreams31"
	// BenchPeriodic is the Figure 6 work-conservation workload: a
	// periodic 70% class against a constant 30% streamer. The phase is
	// half the measure window, so a run covers one full
	// streaming+cache-resident period.
	BenchPeriodic = "periodic"
	// BenchSkew hashes half the tiles' traffic entirely onto channel 0
	// (the Section III-C1 per-MC governor scenario).
	BenchSkew = "skew"
	// BenchHetero gives one class a single busy thread among 15 quiet
	// ones (the Section V-B heterogeneous-thread scenario).
	BenchHetero = "hetero"
	// BenchSpecIso runs 16 tiles of one SPEC proxy alone (Workload
	// selects the proxy) — the Figure 10/12 isolated reference.
	BenchSpecIso = "spec-iso"
	// BenchSpecMix co-runs the SPEC proxy with a 16-tile stream
	// aggressor at a 32:1 share ratio.
	BenchSpecMix = "spec-mix"
	// BenchIaaS consolidates four equal-share 8-CPU classes of one SPEC
	// proxy (the Figure 11 shared machine).
	BenchIaaS = "iaas"
	// BenchIaaSStatic is Figure 11's static baseline: 8 CPUs isolated
	// on a DDR/4 machine.
	BenchIaaSStatic = "iaas-static"
)

// benchDef describes one named benchmark: how to build its machine, its
// entitled high-class share, and (when the mix has a closed-form
// demand description) its analytical-twin class loads.
type benchDef struct {
	desc string
	// entitledHi is classes[0]'s entitled share of DRAM bandwidth (0
	// when the bench has no share-fidelity reading).
	entitledHi float64
	// workload: the bench requires RunSpec.Workload (a SPEC proxy name).
	workload bool
	// build assembles the machine from the resolved configuration under
	// the scale's kernel; classes[0] is the high-weight class whose share
	// the result reports.
	build func(rs RunSpec, cfg pabst.SystemConfig, mode pabst.Mode, sc Scale) (*pabst.Builder, []pabst.ClassID, error)
	// loads describes the mix to the analytical twin; nil marks the
	// bench as having no closed-form model (PredictSpec errors).
	loads func(rs RunSpec, cfg pabst.SystemConfig) []twin.ClassLoad
}

// load returns the active tiles per class (default 16).
func (rs RunSpec) load() int {
	if rs.Load == 0 {
		return 16
	}
	return rs.Load
}

// pair resolves which mechanism the spec runs under a scale. Most
// specific wins, side by side: the spec's own Policy, then the scale's
// process-wide override (-policy), then the spec's Mode, which defaults
// to full PABST. Run (through buildFor) and PredictSpec both resolve
// here, so the simulator and the twin cannot disagree.
func (rs RunSpec) pair(sc Scale) (pabst.Mode, error) {
	mode, err := pabst.ParseMode(rs.Mode)
	if err != nil {
		return mode, err
	}
	over, err := pabst.ParseMode(rs.Policy)
	if err != nil {
		return over, err
	}
	return over.Over(sc.Policy).Over(mode).Over(pabst.ModePABST), nil
}

// streamMLP is the effective per-tile miss-level parallelism a paced
// stream generator sustains, for the twin's demand model: about half
// the MSHR budget once pacing and the in-order miss window bite.
func streamMLP(cfg pabst.SystemConfig) float64 { return float64(cfg.MaxMSHRs) / 2 }

// twoClassStreams describes the symmetric two-stream-class mixes to the
// twin.
func twoClassStreams(rs RunSpec, cfg pabst.SystemConfig, wHi, wLo int, writeFactor float64) []twin.ClassLoad {
	tiles := rs.load()
	mlp := streamMLP(cfg)
	return []twin.ClassLoad{
		{Name: "hi", Weight: wHi, Tiles: tiles, MLP: mlp, WriteFactor: writeFactor, Duty: 1},
		{Name: "lo", Weight: wLo, Tiles: tiles, MLP: mlp, WriteFactor: writeFactor, Duty: 1},
	}
}

var benchRegistry = map[string]benchDef{
	BenchStreams: {
		desc:       "7:3 read-stream classes, Load tiles each (Figure 5 machine)",
		entitledHi: 0.7,
		build: func(rs RunSpec, cfg pabst.SystemConfig, mode pabst.Mode, sc Scale) (*pabst.Builder, []pabst.ClassID, error) {
			b := pabst.NewBuilder(cfg, mode, pabst.WithKernel(sc.Kernel))
			hi := b.AddClass("hi", 7, cfg.L3Ways/2)
			lo := b.AddClass("lo", 3, cfg.L3Ways/2)
			attachStreams(b, hi, 0, rs.load(), false)
			attachStreams(b, lo, 16, 16+rs.load(), false)
			return b, []pabst.ClassID{hi, lo}, nil
		},
		loads: func(rs RunSpec, cfg pabst.SystemConfig) []twin.ClassLoad {
			return twoClassStreams(rs, cfg, 7, 3, 1)
		},
	},
	BenchChaser: {
		desc:       "3:1 pointer chasers vs a background write-stream class",
		entitledHi: 0.75,
		build: func(rs RunSpec, cfg pabst.SystemConfig, mode pabst.Mode, sc Scale) (*pabst.Builder, []pabst.ClassID, error) {
			b := pabst.NewBuilder(cfg, mode, pabst.WithKernel(sc.Kernel))
			hi := b.AddClass("chaser", 3, cfg.L3Ways/2)
			lo := b.AddClass("stream", 1, cfg.L3Ways/2)
			for i := 0; i < rs.load(); i++ {
				b.Attach(i, hi, pabst.Chaser("chaser", pabst.TileRegion(i), 8, uint64(i)+1))
				b.Attach(16+i, lo, pabst.Stream("stream", pabst.TileRegion(16+i), 128, true))
			}
			return b, []pabst.ClassID{hi, lo}, nil
		},
		loads: func(rs RunSpec, cfg pabst.SystemConfig) []twin.ClassLoad {
			return []twin.ClassLoad{
				{Name: "chaser", Weight: 3, Tiles: rs.load(), MLP: 8, WriteFactor: 1, Duty: 1},
				{Name: "stream", Weight: 1, Tiles: rs.load(), MLP: streamMLP(cfg), WriteFactor: 2, Duty: 1},
			}
		},
	},
	BenchWStreams: {
		desc:       "7:3 write-stream classes, Load tiles each (Pareto harness mix)",
		entitledHi: 0.7,
		build: func(rs RunSpec, cfg pabst.SystemConfig, mode pabst.Mode, sc Scale) (*pabst.Builder, []pabst.ClassID, error) {
			b := pabst.NewBuilder(cfg, mode, pabst.WithKernel(sc.Kernel))
			hi := b.AddClass("hi", 7, cfg.L3Ways/2)
			lo := b.AddClass("lo", 3, cfg.L3Ways/2)
			attachStreams(b, hi, 0, rs.load(), true)
			attachStreams(b, lo, 16, 16+rs.load(), true)
			return b, []pabst.ClassID{hi, lo}, nil
		},
		loads: func(rs RunSpec, cfg pabst.SystemConfig) []twin.ClassLoad {
			return twoClassStreams(rs, cfg, 7, 3, 2)
		},
	},
	BenchWStreams31: {
		desc:       "3:1 write-stream classes (Figure 1 stream+stream cell)",
		entitledHi: 0.75,
		build: func(rs RunSpec, cfg pabst.SystemConfig, mode pabst.Mode, sc Scale) (*pabst.Builder, []pabst.ClassID, error) {
			b := pabst.NewBuilder(cfg, mode, pabst.WithKernel(sc.Kernel))
			hi := b.AddClass("hi", 3, cfg.L3Ways/2)
			lo := b.AddClass("lo", 1, cfg.L3Ways/2)
			attachStreams(b, hi, 0, rs.load(), true)
			attachStreams(b, lo, 16, 16+rs.load(), true)
			return b, []pabst.ClassID{hi, lo}, nil
		},
		loads: func(rs RunSpec, cfg pabst.SystemConfig) []twin.ClassLoad {
			return twoClassStreams(rs, cfg, 3, 1, 2)
		},
	},
	BenchPeriodic: {
		// The phase is half the measure window: the window then covers
		// exactly one full streaming+cached period, and each phase stays
		// long enough (tens of epochs) for the governors to re-converge
		// after a toggle — the work-conservation uplift IS that
		// converged idle-phase grab. It needs a warmup of one period
		// too: the first cached phase is a paced refill from memory.
		desc: "periodic 70% class vs constant 30% streamer (Figure 6 work conservation)",
		build: func(rs RunSpec, cfg pabst.SystemConfig, mode pabst.Mode, sc Scale) (*pabst.Builder, []pabst.ClassID, error) {
			b := pabst.NewBuilder(cfg, mode, pabst.WithKernel(sc.Kernel))
			per := b.AddClass("periodic-70", 7, cfg.L3Ways/2)
			con := b.AddClass("constant-30", 3, cfg.L3Ways/2)
			phase := sc.Measure / 2
			if phase == 0 {
				phase = 1
			}
			for i := 0; i < 16; i++ {
				cached := pabst.Region{Base: pabst.TileRegion(i).Base + (128 << 20), Size: 128 << 10}
				b.Attach(i, per, pabst.Periodic("periodic", pabst.TileRegion(i), cached, phase, phase))
			}
			attachStreams(b, con, 16, 32, false)
			return b, []pabst.ClassID{per, con}, nil
		},
	},
	BenchSkew: {
		desc: "half the tiles stream to channel 0 only, half uniformly (per-MC SAT scenario)",
		build: func(rs RunSpec, cfg pabst.SystemConfig, mode pabst.Mode, sc Scale) (*pabst.Builder, []pabst.ClassID, error) {
			b := pabst.NewBuilder(cfg, mode, pabst.WithKernel(sc.Kernel))
			hot := b.AddClass("hot", 1, cfg.L3Ways/2)
			uni := b.AddClass("uniform", 1, cfg.L3Ways/2)
			numMCs := cfg.NumMCs
			for i := 0; i < 16; i++ {
				r := pabst.TileRegion(i)
				b.Attach(i, hot, pabst.FilteredStream("hot", r, 128, false, func(a pabst.Addr) bool {
					return soc.MCIndex(a, numMCs) == 0
				}))
			}
			for i := 16; i < 32; i++ {
				b.Attach(i, uni, pabst.Stream("uni", pabst.TileRegion(i), 128, false))
			}
			return b, []pabst.ClassID{hot, uni}, nil
		},
	},
	BenchHetero: {
		desc: "one busy thread of 16 in a class vs a fully-busy class (Section V-B)",
		build: func(rs RunSpec, cfg pabst.SystemConfig, mode pabst.Mode, sc Scale) (*pabst.Builder, []pabst.ClassID, error) {
			b := pabst.NewBuilder(cfg, mode, pabst.WithKernel(sc.Kernel))
			mixed := b.AddClass("mixed", 1, cfg.L3Ways/2)
			busy := b.AddClass("busy", 1, cfg.L3Ways/2)
			b.Attach(0, mixed, pabst.Stream("hot", pabst.TileRegion(0), 128, false))
			for i := 1; i < 16; i++ {
				quiet := pabst.Region{Base: pabst.TileRegion(i).Base, Size: 64 << 10}
				b.Attach(i, mixed, pabst.Stream("quiet", quiet, 128, false))
			}
			attachStreams(b, busy, 16, 32, false)
			return b, []pabst.ClassID{mixed, busy}, nil
		},
	},
	BenchSpecIso: {
		desc:     "16 tiles of one SPEC proxy alone (Figure 10/12 isolated reference)",
		workload: true,
		build: func(rs RunSpec, cfg pabst.SystemConfig, mode pabst.Mode, sc Scale) (*pabst.Builder, []pabst.ClassID, error) {
			return buildSpecBench(rs, cfg, mode, sc, false)
		},
	},
	BenchSpecMix: {
		desc:     "SPEC proxy vs 16-tile stream aggressor at 32:1 shares (Figure 10/12)",
		workload: true,
		build: func(rs RunSpec, cfg pabst.SystemConfig, mode pabst.Mode, sc Scale) (*pabst.Builder, []pabst.ClassID, error) {
			return buildSpecBench(rs, cfg, mode, sc, true)
		},
	},
	BenchIaaS: {
		desc:     "four equal-share 8-CPU classes of one SPEC proxy (Figure 11 shared)",
		workload: true,
		build: func(rs RunSpec, cfg pabst.SystemConfig, mode pabst.Mode, sc Scale) (*pabst.Builder, []pabst.ClassID, error) {
			b := pabst.NewBuilder(cfg, mode, pabst.WithKernel(sc.Kernel))
			var classes []pabst.ClassID
			for c := 0; c < 4; c++ {
				classes = append(classes, b.AddClass("vm-"+string(rune('a'+c)), 1, cfg.L3Ways/4))
			}
			for c := 0; c < 4; c++ {
				if err := attachSpec(b, classes[c], rs.Workload, c*8, c*8+8); err != nil {
					return nil, nil, err
				}
			}
			return b, classes, nil
		},
	},
	BenchIaaSStatic: {
		desc:     "8 CPUs of one SPEC proxy isolated at DDR/4 (Figure 11 static baseline)",
		workload: true,
		build: func(rs RunSpec, cfg pabst.SystemConfig, mode pabst.Mode, sc Scale) (*pabst.Builder, []pabst.ClassID, error) {
			cfg = cfg.ScaleDRAM(4)
			b := pabst.NewBuilder(cfg, mode, pabst.WithKernel(sc.Kernel))
			cls := b.AddClass("vm-static", 1, cfg.L3Ways/4)
			if err := attachSpec(b, cls, rs.Workload, 0, 8); err != nil {
				return nil, nil, err
			}
			return b, []pabst.ClassID{cls}, nil
		},
	},
}

// buildSpecBench reproduces the Figure 10/12 machine: 16 SPEC tiles
// (class 0) and optionally 16 stream-aggressor tiles (class 1) at 32:1.
func buildSpecBench(rs RunSpec, cfg pabst.SystemConfig, mode pabst.Mode, sc Scale, aggressor bool) (*pabst.Builder, []pabst.ClassID, error) {
	b := pabst.NewBuilder(cfg, mode, pabst.WithKernel(sc.Kernel))
	spec := b.AddClass("spec", 32, cfg.L3Ways/2)
	agg := b.AddClass("aggressor", 1, cfg.L3Ways/2)
	if err := attachSpec(b, spec, rs.Workload, 0, 16); err != nil {
		return nil, nil, err
	}
	if aggressor {
		attachStreams(b, agg, 16, 32, false)
	}
	return b, []pabst.ClassID{spec, agg}, nil
}

// BenchNames lists the registered benchmark names, sorted.
func BenchNames() []string {
	names := make([]string, 0, len(benchRegistry))
	for n := range benchRegistry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// BenchEntitledHi returns the bench's entitled high-class share (0 when
// the bench has no share-fidelity reading).
func BenchEntitledHi(name string) float64 { return benchRegistry[name].entitledHi }

// RunSpec is a serializable, self-contained description of one canonical
// benchmark run — the unit of work for the sweep service and the CLI
// alike. Two specs with equal fingerprints build bit-identical machines
// and therefore produce bit-identical results, which is what makes
// at-least-once job execution safe: re-running a requeued spec cannot
// change its answer.
type RunSpec struct {
	// Bench selects the workload mix (see BenchNames).
	Bench string `json:"bench"`
	// Scale names the experiment scale ("quick" or "full", or a name the
	// executing environment registered).
	Scale string `json:"scale"`
	// Params are named configuration overrides applied through SetParam.
	Params map[string]uint64 `json:"params,omitempty"`
	// Policy and Mode are two layers of one mechanism selection, both
	// read by pabst.ParseMode and merged by pair: Policy's halves win
	// over everything, Mode yields to a process-wide -policy override,
	// and what neither names runs full PABST. They stay two wire fields
	// because persisted journals and dedup keys (Fingerprint) carry
	// both; by convention Policy holds "source+target" (either half may
	// be empty) and Mode a preset name ("none", "source-only",
	// "target-only", "pabst", "static-source").
	Policy string `json:"policy,omitempty"`
	Mode   string `json:"mode,omitempty"`
	// Load sets the active tiles per class on the benches that take a
	// utilization axis (0 means the default 16).
	Load int `json:"load,omitempty"`
	// Workload names the SPEC proxy for the spec/iaas benches.
	Workload string `json:"workload,omitempty"`
	// Fault optionally names a fault preset (pabst.FaultPresets; any
	// other value is refused, never read as a path); the plan arms the
	// governors' degradation machinery and the run reports
	// RunResult.Faults.
	Fault string `json:"fault,omitempty"`
}

// Resolve is a spec's one admission under this environment: it checks
// the spec's fields, resolves its scale, and builds the configuration
// the run simulates — the scale's epoch and window, then the params,
// then the fault preset — and validates that machine. Run, PredictSpec
// and the sweep service's admission all resolve here, so a spec that is
// admitted is one that builds, at the epoch it runs at. Every refusal
// wraps config.ErrInvalid.
func (ex Exec) Resolve(rs RunSpec) (pabst.SystemConfig, Scale, error) {
	if err := rs.checkFields(); err != nil {
		return pabst.SystemConfig{}, Scale{}, err
	}
	sc, err := ex.Scale(rs.Scale)
	if err != nil {
		return pabst.SystemConfig{}, Scale{}, err
	}
	// The machine the params and the plan describe must be buildable: a
	// queue depth from a REST body is otherwise first checked by the
	// allocator, a NoC fault on the modeled fabric never, and a heartbeat
	// lag only against the epoch the scale sets.
	cfg := sc.Apply(pabst.Default32Config())
	if err := rs.applyParams(&cfg); err != nil {
		return pabst.SystemConfig{}, Scale{}, err
	}
	if rs.Fault != "" {
		if cfg.Faults, err = pabst.LoadFaultPlan(rs.Fault); err != nil {
			return pabst.SystemConfig{}, Scale{}, err
		}
	}
	if err := cfg.Validate(); err != nil {
		return pabst.SystemConfig{}, Scale{}, err
	}
	return cfg, sc, nil
}

// checkFields refuses the spec fields no machine configuration depends on.
func (rs RunSpec) checkFields() error {
	def, ok := benchRegistry[rs.Bench]
	if !ok {
		return fmt.Errorf("%w: unknown bench %q (have %v)", config.ErrInvalid, rs.Bench, BenchNames())
	}
	if rs.Scale == "" {
		return fmt.Errorf("%w: empty scale name", config.ErrInvalid)
	}
	if _, err := rs.pair(Scale{}); err != nil {
		return fmt.Errorf("%w: %w", config.ErrInvalid, err)
	}
	if rs.Load < 0 || rs.Load > 16 {
		return fmt.Errorf("%w: load %d outside [0,16]", config.ErrInvalid, rs.Load)
	}
	if def.workload {
		if _, err := pabst.SpecProxy(rs.Workload, pabst.TileRegion(0), 1); err != nil {
			return fmt.Errorf("%w: bench %q requires a workload (have %v): %w",
				config.ErrInvalid, rs.Bench, pabst.SpecNames(), err)
		}
	}
	if !def.workload && rs.Workload != "" {
		return fmt.Errorf("%w: bench %q takes no workload", config.ErrInvalid, rs.Bench)
	}
	return nil
}

// applyParams stamps the spec's named overrides onto cfg, in name order.
func (rs RunSpec) applyParams(cfg *pabst.SystemConfig) error {
	names := make([]string, 0, len(rs.Params))
	for n := range rs.Params {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if err := SetParam(cfg, n, rs.Params[n]); err != nil {
			return err
		}
	}
	return nil
}

// Fingerprint returns the sha256 of the spec's canonical rendering
// (sorted parameter order). It identifies the configuration, not a
// particular execution: the idempotence key for job deduplication and
// result caching.
func (rs RunSpec) Fingerprint() string {
	s := fmt.Sprintf("bench=%s scale=%s", rs.Bench, rs.Scale)
	names := make([]string, 0, len(rs.Params))
	for n := range rs.Params {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s += fmt.Sprintf(" %s=%d", n, rs.Params[n])
	}
	// Optional fields are appended only when set, so pre-existing specs
	// keep their historical fingerprints (the dedup keys of
	// already-persisted sweep results).
	if rs.Policy != "" {
		s += fmt.Sprintf(" policy=%s", rs.Policy)
	}
	if rs.Mode != "" {
		s += fmt.Sprintf(" mode=%s", rs.Mode)
	}
	if rs.Load != 0 {
		s += fmt.Sprintf(" load=%d", rs.Load)
	}
	if rs.Workload != "" {
		s += fmt.Sprintf(" workload=%s", rs.Workload)
	}
	if rs.Fault != "" {
		s += fmt.Sprintf(" fault=%s", rs.Fault)
	}
	return fmt.Sprintf("%x", sha256.Sum256([]byte(s)))
}

// RunFaults carries the fault-injection and governor-degradation
// counters of a faulted run (RunSpec.Fault set).
type RunFaults struct {
	Injected         uint64 `json:"injected"`
	StaleIntervals   uint64 `json:"stale_intervals"`
	Decays           uint64 `json:"decays"`
	ResyncEpochs     uint64 `json:"resync_epochs"`
	DivergenceMax    uint64 `json:"divergence_max"`
	DivergedEpochs   uint64 `json:"diverged_epochs"`
	ReconvergeEpochs uint64 `json:"reconverge_epochs"`
}

// RunResult is the measured outcome of a completed spec.
type RunResult struct {
	// ShareHi is the high-weight class's fraction of DRAM traffic.
	ShareHi float64 `json:"share_hi"`
	// TotalBPC is the machine's total measured bytes per cycle.
	TotalBPC float64 `json:"total_bpc"`
	// P99Hi is the high-weight class's p99 end-to-end miss latency in
	// cycles over the measurement window.
	P99Hi uint64 `json:"p99_hi,omitempty"`
	// P99Lo is the second class's p99 miss latency (0 for one class).
	P99Lo uint64 `json:"p99_lo,omitempty"`
	// Shares, BPC, and IPC report per-class DRAM-traffic share, bytes
	// per cycle, and instructions per cycle, in class order.
	Shares []float64 `json:"shares,omitempty"`
	BPC    []float64 `json:"bpc,omitempty"`
	IPC    []float64 `json:"ipc,omitempty"`
	// TileIPCHi is the high-weight class's per-tile IPC vector (the
	// Figure 10 slowdown input).
	TileIPCHi []float64 `json:"tile_ipc_hi,omitempty"`
	// MCUtil is each channel's data-bus utilization.
	MCUtil []float64 `json:"mc_util,omitempty"`
	// BusUtil and Efficiency report whole-machine bus utilization and
	// memory efficiency (busy/pending).
	BusUtil    float64 `json:"bus_util,omitempty"`
	Efficiency float64 `json:"efficiency,omitempty"`
	// Faults carries injection/degradation counters for faulted runs.
	Faults *RunFaults `json:"faults,omitempty"`
	// Fingerprint hashes the run's full observable statistics; equal
	// specs produce equal fingerprints regardless of kernel or warm
	// starts.
	Fingerprint string `json:"fingerprint"`
	// Cycles is the measured cycles behind the result: the whole window
	// on success (a cached answer reports the window of the run that
	// produced it), the prefix reached when cancelled.
	Cycles uint64 `json:"cycles"`
}

// RunIO carries nothing: a run stops when its context is done, and no
// caller hooks into it. It stays only because the frozen benchmark
// module passes exp.RunIO{} to RunSpec.Run.
type RunIO struct{}

// buildFor assembles the spec's machine from its resolved configuration
// (Exec.Resolve) and scale: mechanism and the bench's builder. classes[0]
// is the high-weight class whose share the result reports.
func (rs RunSpec) buildFor(cfg pabst.SystemConfig, sc Scale) (*pabst.Builder, []pabst.ClassID, error) {
	mode, err := rs.pair(sc)
	if err != nil {
		return nil, nil, err // unreachable past Resolve
	}
	return benchRegistry[rs.Bench].build(rs, cfg, mode, sc)
}

// Run executes the spec under ctx and the given environment. A spec
// whose fingerprint ex.Results holds is answered from it without a
// machine; any other spec builds and warms its machine (warmed) and runs
// the measure window in chunks (runChunks), so a cancellation stops it
// within an epoch or a chunk, whichever is shorter. A cancelled run
// returns the context error and caches nothing, and a rerun starts again
// from a fresh machine.
func (rs RunSpec) Run(ctx context.Context, ex Exec, _ RunIO) (RunResult, error) {
	cfg, sc, err := ex.Resolve(rs)
	if err != nil {
		return RunResult{}, err
	}
	fp := rs.Fingerprint()
	if res, ok := ex.Results.get(fp); ok {
		return res, nil
	}
	b, classes, err := rs.buildFor(cfg, sc)
	if err != nil {
		return RunResult{}, err
	}
	sys, err := warmed(ctx, b, sc.Warmup)
	if err != nil {
		return RunResult{}, err
	}
	defer sys.Close()
	done, err := runChunks(ctx, sys, sc.Measure)
	if err != nil {
		return RunResult{Cycles: done}, err
	}

	res := collectResult(rs, sys, classes)
	res.Cycles = done
	ex.Results.put(fp, res)
	return res, nil
}

// collectResult reads the measured outcome off a finished system: one
// Snapshot, plus the two read-outs a snapshot does not carry (tail
// percentiles and the fault report).
func collectResult(rs RunSpec, sys *pabst.System, classes []pabst.ClassID) RunResult {
	snap := sys.Snapshot()
	res := RunResult{
		P99Hi:       sys.ClassTailLatency(classes[0], 99),
		BusUtil:     snap.Window.BusUtilization,
		Efficiency:  snap.Window.Efficiency,
		Shares:      make([]float64, len(classes)),
		BPC:         make([]float64, len(classes)),
		IPC:         make([]float64, len(classes)),
		MCUtil:      make([]float64, len(snap.MCs)),
		Fingerprint: resultFingerprint(snap, classes),
	}
	if len(classes) > 1 {
		res.P99Lo = sys.ClassTailLatency(classes[1], 99)
	}
	for i, c := range classes {
		cs := snap.Class(c)
		res.Shares[i] = cs.Share
		res.BPC[i] = cs.BytesPerCycle
		res.TotalBPC += cs.BytesPerCycle
		res.IPC[i] = cs.IPC
	}
	res.ShareHi = res.Shares[0]
	res.TileIPCHi = snap.Class(classes[0]).TileIPCs
	for i := range snap.MCs {
		res.MCUtil[i] = snap.MCs[i].Utilization
	}
	if rs.Fault != "" {
		rep := sys.FaultReport()
		res.Faults = &RunFaults{
			StaleIntervals:   rep.StaleIntervals,
			Decays:           rep.Decays,
			ResyncEpochs:     rep.ResyncEpochs,
			DivergenceMax:    rep.DivergenceMax,
			DivergedEpochs:   rep.DivergedEpochs,
			ReconvergeEpochs: rep.ReconvergeEpochs,
		}
		if rep.Injected != nil {
			res.Faults.Injected = rep.Injected.Total()
		}
	}
	return res
}

// resultFingerprint hashes a run's observable statistics — window
// metrics, governor rates, and per-class IPC/latency vectors — for
// byte-for-byte comparison across execution environments.
func resultFingerprint(snap pabst.Snapshot, classes []pabst.ClassID) string {
	s := fmt.Sprintf("metrics=%+v gov=%v", snap.Window, snap.GovernorMs())
	for _, c := range classes {
		cs := snap.Class(c)
		s += fmt.Sprintf(" c%d=%v/%v/%v", c, cs.IPC, cs.TileIPCs, cs.MissLatency)
	}
	return fmt.Sprintf("%x", sha256.Sum256([]byte(s)))
}
