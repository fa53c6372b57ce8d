package fault

import "fmt"

// SATPlan perturbs the epoch heartbeat / wired-OR SAT broadcast.
type SATPlan struct {
	// DropProb is the per-tile per-epoch probability that the heartbeat
	// is lost entirely (the governor sees nothing that epoch).
	DropProb float64 `json:",omitempty"`

	// DelayCycles delays every delivered heartbeat by this fixed lag;
	// DelayJitter adds a uniform extra lag in [0, DelayJitter]. The total
	// must stay under the epoch length.
	DelayCycles uint64 `json:",omitempty"`
	DelayJitter uint64 `json:",omitempty"`

	// FlipProb is the per-tile per-epoch probability the delivered SAT
	// bit is inverted (bit-flip corruption on the wired-OR line), making
	// that governor see a different SAT history than its peers.
	FlipProb float64 `json:",omitempty"`

	// Partition: tiles in [PartTileLo, PartTileHi) receive no heartbeats
	// at all during epochs [PartFromEpoch, PartToEpoch) — a network
	// partition of the broadcast tree. Zero-width ranges disable it.
	PartTileLo    int    `json:",omitempty"`
	PartTileHi    int    `json:",omitempty"`
	PartFromEpoch uint64 `json:",omitempty"`
	PartToEpoch   uint64 `json:",omitempty"`
}

// DRAMPlan injects transient memory-controller faults.
type DRAMPlan struct {
	// StallProb is the per-controller per-epoch probability that one
	// bank stalls (ECC scrub, on-die retry) for StallCycles.
	StallProb   float64 `json:",omitempty"`
	StallCycles uint64  `json:",omitempty"`

	// FreezeProb is the per-controller per-epoch probability that the
	// controller front end freezes (issues nothing) for FreezeCycles.
	FreezeProb   float64 `json:",omitempty"`
	FreezeCycles uint64  `json:",omitempty"`
}

// NoCPlan injects transient interconnect faults on the miss/response
// paths.
type NoCPlan struct {
	// DelayProb is the per-message probability of a latency spike of
	// DelayCycles (transient link degradation, e.g. lane retraining).
	DelayProb   float64 `json:",omitempty"`
	DelayCycles uint64  `json:",omitempty"`

	// DropProb is the per-message probability that an injection is
	// dropped and must be retried by the sender (CRC-failed flit).
	DropProb float64 `json:",omitempty"`
}

// Plan composes fault specifications for every channel. The zero Plan is
// valid and injects nothing.
type Plan struct {
	SAT  SATPlan  `json:",omitempty"`
	DRAM DRAMPlan `json:",omitempty"`
	NoC  NoCPlan  `json:",omitempty"`
}

// Active reports whether the plan injects any fault at all.
func (p *Plan) Active() bool {
	if p == nil {
		return false
	}
	s, d, n := p.SAT, p.DRAM, p.NoC
	return s.DropProb > 0 || s.DelayCycles > 0 || s.DelayJitter > 0 || s.FlipProb > 0 ||
		s.PartTileHi > s.PartTileLo && s.PartToEpoch > s.PartFromEpoch ||
		d.StallProb > 0 || d.FreezeProb > 0 ||
		n.DelayProb > 0 || n.DropProb > 0
}

func checkProb(field string, v float64) error {
	if v < 0 || v > 1 {
		return fmt.Errorf("fault: %s must be a probability in [0,1], got %g", field, v)
	}
	return nil
}

// Validate reports plan errors. epochCycles is the heartbeat period the
// plan will run under (SAT delays must stay well inside one epoch).
func (p *Plan) Validate(epochCycles uint64) error {
	if p == nil {
		return nil
	}
	for _, c := range []struct {
		field string
		v     float64
	}{
		{"SAT.DropProb", p.SAT.DropProb},
		{"SAT.FlipProb", p.SAT.FlipProb},
		{"DRAM.StallProb", p.DRAM.StallProb},
		{"DRAM.FreezeProb", p.DRAM.FreezeProb},
		{"NoC.DelayProb", p.NoC.DelayProb},
		{"NoC.DropProb", p.NoC.DropProb},
	} {
		if err := checkProb(c.field, c.v); err != nil {
			return err
		}
	}
	if epochCycles > 0 && p.SAT.DelayCycles+p.SAT.DelayJitter >= epochCycles {
		return fmt.Errorf("fault: SAT.DelayCycles+SAT.DelayJitter (%d) must be under the epoch length %d",
			p.SAT.DelayCycles+p.SAT.DelayJitter, epochCycles)
	}
	if p.SAT.PartTileHi < p.SAT.PartTileLo {
		return fmt.Errorf("fault: SAT partition tile range [%d,%d) is inverted", p.SAT.PartTileLo, p.SAT.PartTileHi)
	}
	if p.SAT.PartTileLo < 0 {
		return fmt.Errorf("fault: SAT.PartTileLo must be non-negative, got %d", p.SAT.PartTileLo)
	}
	if p.SAT.PartToEpoch < p.SAT.PartFromEpoch {
		return fmt.Errorf("fault: SAT partition epoch range [%d,%d) is inverted", p.SAT.PartFromEpoch, p.SAT.PartToEpoch)
	}
	if p.DRAM.StallProb > 0 && p.DRAM.StallCycles == 0 {
		return fmt.Errorf("fault: DRAM.StallProb set but DRAM.StallCycles is zero")
	}
	if p.DRAM.FreezeProb > 0 && p.DRAM.FreezeCycles == 0 {
		return fmt.Errorf("fault: DRAM.FreezeProb set but DRAM.FreezeCycles is zero")
	}
	if p.NoC.DelayProb > 0 && p.NoC.DelayCycles == 0 {
		return fmt.Errorf("fault: NoC.DelayProb set but NoC.DelayCycles is zero")
	}
	return nil
}

// partitioned reports whether the plan cuts tile off from the heartbeat
// during the given epoch.
func (p *Plan) partitioned(tile int, epoch uint64) bool {
	return tile >= p.SAT.PartTileLo && tile < p.SAT.PartTileHi &&
		epoch >= p.SAT.PartFromEpoch && epoch < p.SAT.PartToEpoch
}

// Presets name the canonical fault scenarios: the only plans the pabstsim
// -faults flag and a RunSpec's fault take, the chaos tests' sweep, and the
// degradation benchmarks.
var presets = map[string]Plan{
	"sat-drop": {
		SAT: SATPlan{DropProb: 0.2},
	},
	"sat-delay": {
		SAT: SATPlan{DelayCycles: 1000, DelayJitter: 2000},
	},
	"sat-flip": {
		SAT: SATPlan{FlipProb: 0.05},
	},
	"sat-partition": {
		SAT: SATPlan{PartTileLo: 0, PartTileHi: 8, PartFromEpoch: 10, PartToEpoch: 30},
	},
	"dram-storm": {
		DRAM: DRAMPlan{StallProb: 0.2, StallCycles: 2000, FreezeProb: 0.05, FreezeCycles: 1000},
	},
	"noc-storm": {
		NoC: NoCPlan{DelayProb: 0.02, DelayCycles: 200, DropProb: 0.01},
	},
	"everything": {
		SAT:  SATPlan{DropProb: 0.1, DelayCycles: 500, DelayJitter: 1000, FlipProb: 0.02},
		DRAM: DRAMPlan{StallProb: 0.1, StallCycles: 1000, FreezeProb: 0.02, FreezeCycles: 500},
		NoC:  NoCPlan{DelayProb: 0.01, DelayCycles: 100, DropProb: 0.005},
	},
}

// Preset returns a named canonical plan.
func Preset(name string) (Plan, error) {
	p, ok := presets[name]
	if !ok {
		return Plan{}, fmt.Errorf("fault: unknown preset %q (have %v)", name, PresetNames())
	}
	return p, nil
}

// PresetNames lists the canonical plans in stable order.
func PresetNames() []string {
	return []string{"sat-drop", "sat-delay", "sat-flip", "sat-partition", "dram-storm", "noc-storm", "everything"}
}
