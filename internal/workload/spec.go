package workload

import (
	"fmt"

	"pabst/internal/sim"
)

// SpecParams parameterizes a SPEC CPU 2006 proxy. The knobs place each
// workload on the axes the paper's evaluation depends on: memory
// intensity (Gap), latency sensitivity (DepFrac), cache friendliness
// (HotFrac/HotBytes), scheduling friendliness (SeqFrac), and write
// traffic (WriteFrac).
type SpecParams struct {
	Name string

	HotBytes  uint64  // hot working set, sized to hit in L2/L3
	ColdBytes uint64  // large footprint streamed/randomly touched
	HotFrac   float64 // fraction of accesses to the hot set
	SeqFrac   float64 // of cold accesses, fraction that are sequential
	DepFrac   float64 // fraction of ops dependent on the previous op
	WriteFrac float64 // fraction of ops that are stores
	Gap       int     // compute cycles per memory op
	Insts     uint64  // instructions represented by one op

	// Phase behavior: real SPEC workloads alternate between memory-heavy
	// and compute-heavy program phases (the reason simpoints exist). The
	// proxy alternates its compute gap between Gap*(1-PhaseAmp) and
	// Gap*(1+PhaseAmp) every PhaseCycles, with per-instance jitter so
	// co-running copies desynchronize. PhaseCycles = 0 disables phases.
	PhaseCycles uint64
	PhaseAmp    float64
}

// Validate reports parameter errors.
func (p SpecParams) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("workload: spec proxy needs a name")
	}
	if p.HotBytes == 0 || p.ColdBytes == 0 {
		return fmt.Errorf("workload: %s: zero working set", p.Name)
	}
	for _, f := range []float64{p.HotFrac, p.SeqFrac, p.DepFrac, p.WriteFrac} {
		if f < 0 || f > 1 {
			return fmt.Errorf("workload: %s: fraction outside [0,1]", p.Name)
		}
	}
	if p.PhaseAmp < 0 || p.PhaseAmp > 1 {
		return fmt.Errorf("workload: %s: phase amplitude outside [0,1]", p.Name)
	}
	if p.Gap < 0 || p.Insts == 0 {
		return fmt.Errorf("workload: %s: bad gap/insts", p.Name)
	}
	return nil
}

// Spec is a statistical proxy for one SPEC CPU 2006 thread.
type Spec struct {
	p      SpecParams
	hot    Region
	cold   Region
	rng    *sim.RNG
	seqPos uint64

	phaseLen  uint64 // jittered PhaseCycles, 0 = no phases
	lastIssue uint64
}

// NewSpec builds a proxy thread over a private region. The region's
// first HotBytes back the hot set; the rest holds the cold footprint
// (region.Size must cover both).
func NewSpec(p SpecParams, region Region, seed uint64) (*Spec, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if region.Size < p.HotBytes+p.ColdBytes {
		return nil, fmt.Errorf("workload: %s: region %d B smaller than %d B working set",
			p.Name, region.Size, p.HotBytes+p.ColdBytes)
	}
	s := &Spec{
		p:    p,
		hot:  Region{Base: region.Base, Size: p.HotBytes},
		cold: Region{Base: region.Base + mem128(p.HotBytes), Size: p.ColdBytes},
		rng:  sim.NewRNG(seed),
	}
	if p.PhaseCycles > 0 {
		// +/-25% per-instance jitter desynchronizes co-running copies.
		s.phaseLen = p.PhaseCycles*3/4 + s.rng.Uint64()%(p.PhaseCycles/2+1)
	}
	return s, nil
}

// OnIssue implements IssueObserver: it is the proxy's phase clock.
func (s *Spec) OnIssue(now uint64, tag uint64) {
	if now > s.lastIssue {
		s.lastIssue = now
	}
}

// InHeavyPhase reports whether the proxy is in its memory-heavy phase.
func (s *Spec) InHeavyPhase() bool {
	if s.phaseLen == 0 {
		return true
	}
	return (s.lastIssue/s.phaseLen)%2 == 0
}

// gap returns the current compute gap given the phase.
func (s *Spec) gap() int {
	if s.phaseLen == 0 {
		return s.p.Gap
	}
	if s.InHeavyPhase() {
		g := int(float64(s.p.Gap) * (1 - s.p.PhaseAmp))
		if g < 0 {
			g = 0
		}
		return g
	}
	return int(float64(s.p.Gap) * (1 + s.p.PhaseAmp))
}

// Name implements Generator.
func (s *Spec) Name() string { return s.p.Name }

// Next implements Generator.
func (s *Spec) Next(op *Op) {
	var addr = s.hot.LineAt(s.rng.Uint64())
	if s.rng.Float64() >= s.p.HotFrac {
		if s.rng.Float64() < s.p.SeqFrac {
			addr = s.cold.LineAt(s.seqPos)
			s.seqPos++
		} else {
			addr = s.cold.LineAt(s.rng.Uint64())
		}
	}
	dep := 0
	if s.rng.Float64() < s.p.DepFrac {
		dep = 1
	}
	*op = Op{
		Addr:      addr,
		Write:     s.rng.Float64() < s.p.WriteFrac,
		DependsOn: dep,
		Gap:       s.gap(),
		Insts:     s.p.Insts,
		Tag:       1, // ticks the phase clock via OnIssue
	}
}

// SpecSuite returns the eight memory-intensive SPEC CPU 2006 proxies the
// paper evaluates, calibrated to their qualitative character:
//
//   - libquantum, lbm, GemsFDTD, milc: bandwidth-limited — independent
//     accesses at high intensity, mostly streaming.
//   - mcf: enormous random footprint with dependent pointer loads; its
//     request stream is hard to schedule efficiently (the paper calls it
//     out in Figure 12).
//   - omnetpp, sphinx3: latency-limited — highly dependent access chains
//     with moderate intensity.
//   - soplex: mixed.
func SpecSuite() []SpecParams {
	// Hot sets are sized to the simulated hierarchy (256 KiB private L2,
	// ~512 KiB per-tile share of a partitioned L3) rather than to the
	// applications' literal resident sizes: what matters for the
	// reproduction is whether the hot fraction hits close to the core.
	const KB, MB = 1 << 10, 1 << 20
	const ph, amp = 50_000, 0.6
	return []SpecParams{
		{Name: "GemsFDTD", HotBytes: 128 * KB, ColdBytes: 48 * MB, HotFrac: 0.30, SeqFrac: 0.90, DepFrac: 0.10, WriteFrac: 0.30, Gap: 4, Insts: 10, PhaseCycles: ph, PhaseAmp: amp},
		{Name: "lbm", HotBytes: 64 * KB, ColdBytes: 64 * MB, HotFrac: 0.15, SeqFrac: 0.95, DepFrac: 0.05, WriteFrac: 0.45, Gap: 3, Insts: 8, PhaseCycles: ph, PhaseAmp: amp},
		{Name: "libquantum", HotBytes: 32 * KB, ColdBytes: 32 * MB, HotFrac: 0.05, SeqFrac: 1.00, DepFrac: 0.00, WriteFrac: 0.25, Gap: 2, Insts: 6, PhaseCycles: ph, PhaseAmp: amp},
		{Name: "mcf", HotBytes: 256 * KB, ColdBytes: 96 * MB, HotFrac: 0.35, SeqFrac: 0.05, DepFrac: 0.55, WriteFrac: 0.20, Gap: 5, Insts: 12, PhaseCycles: ph, PhaseAmp: amp},
		{Name: "milc", HotBytes: 128 * KB, ColdBytes: 48 * MB, HotFrac: 0.25, SeqFrac: 0.70, DepFrac: 0.15, WriteFrac: 0.30, Gap: 4, Insts: 10, PhaseCycles: ph, PhaseAmp: amp},
		{Name: "omnetpp", HotBytes: 448 * KB, ColdBytes: 16 * MB, HotFrac: 0.55, SeqFrac: 0.10, DepFrac: 0.70, WriteFrac: 0.25, Gap: 12, Insts: 26, PhaseCycles: ph, PhaseAmp: amp},
		{Name: "soplex", HotBytes: 256 * KB, ColdBytes: 32 * MB, HotFrac: 0.40, SeqFrac: 0.55, DepFrac: 0.35, WriteFrac: 0.25, Gap: 8, Insts: 18, PhaseCycles: ph, PhaseAmp: amp},
		{Name: "sphinx3", HotBytes: 448 * KB, ColdBytes: 8 * MB, HotFrac: 0.65, SeqFrac: 0.40, DepFrac: 0.70, WriteFrac: 0.10, Gap: 16, Insts: 34, PhaseCycles: ph, PhaseAmp: amp},
	}
}

// SpecByName returns the suite entry with the given name.
func SpecByName(name string) (SpecParams, bool) {
	for _, p := range SpecSuite() {
		if p.Name == name {
			return p, true
		}
	}
	return SpecParams{}, false
}
