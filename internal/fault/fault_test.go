package fault

import (
	"strings"
	"testing"
)

func TestPresetsLoadAndValidate(t *testing.T) {
	for _, name := range PresetNames() {
		p, err := Preset(name)
		if err != nil {
			t.Fatalf("preset %s: %v", name, err)
		}
		if !p.Active() {
			t.Fatalf("preset %s injects nothing", name)
		}
		if err := p.Validate(20_000); err != nil {
			t.Fatalf("preset %s invalid at the paper epoch: %v", name, err)
		}
	}
	if _, err := Preset("no-such-plan"); err == nil {
		t.Fatal("unknown preset accepted")
	}
}

func TestValidateRejections(t *testing.T) {
	bad := []Plan{
		{SAT: SATPlan{DropProb: 1.5}},
		{SAT: SATPlan{DropProb: -0.1}},
		{SAT: SATPlan{DelayCycles: 900, DelayJitter: 200}},           // lag >= epoch
		{SAT: SATPlan{PartTileLo: 4, PartTileHi: 2, PartToEpoch: 9}}, // inverted tiles
		{SAT: SATPlan{PartTileHi: 2, PartFromEpoch: 9, PartToEpoch: 3}},
		{DRAM: DRAMPlan{StallProb: 0.5}}, // prob without a duration
		{DRAM: DRAMPlan{FreezeProb: 2.0, FreezeCycles: 10}},
		{NoC: NoCPlan{DelayProb: 0.5}},
		{NoC: NoCPlan{DropProb: 7}},
	}
	for i, p := range bad {
		if err := p.Validate(1000); err == nil {
			t.Fatalf("bad plan %d accepted: %+v", i, p)
		}
	}
	var nilPlan *Plan
	if err := nilPlan.Validate(1000); err != nil {
		t.Fatalf("nil plan must validate: %v", err)
	}
}

// TestPlanIsAPresetName pins that a plan is named, never read: a preset
// name resolves, and anything else — a path to a plan file included — is
// refused with an error naming the presets.
func TestPlanIsAPresetName(t *testing.T) {
	p, err := Preset("sat-drop")
	if err != nil || p.SAT.DropProb == 0 {
		t.Fatalf("preset load: %v %+v", err, p)
	}
	_, err = Preset("plan.json")
	if err == nil {
		t.Fatal("a file name resolved as a plan")
	}
	for _, name := range PresetNames() {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not name preset %s", err, name)
		}
	}
}

func TestInjectorNilWhenInactive(t *testing.T) {
	if in := NewInjector(nil, 1, 1, 1); in != nil {
		t.Fatal("nil plan produced an injector")
	}
	if in := NewInjector(&Plan{}, 1, 1, 1); in != nil {
		t.Fatal("empty plan produced an injector")
	}
}

func TestInjectorDeterministic(t *testing.T) {
	plan, _ := Preset("everything")
	type event struct {
		deliver bool
		lag     uint64
		sat     bool
		drop    bool
		delay   uint64
	}
	trace := func(seed uint64) []event {
		in := NewInjector(&plan, seed, 8, 1)
		var out []event
		for e := uint64(1); e <= 50; e++ {
			for tile := 0; tile < 8; tile++ {
				d, lag, sat := in.SATDeliver(tile, e, e%2 == 0)
				out = append(out, event{deliver: d, lag: lag, sat: sat})
			}
			s, f := in.DRAMEpoch(0)
			drop, delay := in.NoCSendMC(0)
			out = append(out, event{lag: s + f, drop: drop, delay: delay})
		}
		return out
	}
	a, b := trace(42), trace(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs across identical runs: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := trace(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical fault traces")
	}
}

// TestStreamIsolation checks the property the per-domain RNG streams
// exist for: adding DRAM/NoC faults to a plan must not perturb the SAT
// fault sequence of an otherwise identical run.
func TestStreamIsolation(t *testing.T) {
	satOnly := Plan{SAT: SATPlan{DropProb: 0.3, FlipProb: 0.2}}
	combined := satOnly
	combined.DRAM = DRAMPlan{StallProb: 0.5, StallCycles: 100}
	combined.NoC = NoCPlan{DropProb: 0.5}

	a := NewInjector(&satOnly, 7, 1, 1)
	b := NewInjector(&combined, 7, 1, 1)
	for e := uint64(1); e <= 200; e++ {
		// The combined run interleaves draws from the other domains.
		b.DRAMEpoch(0)
		b.NoCSendTile(0)
		for tile := 0; tile < 4; tile++ {
			d1, l1, s1 := a.SATDeliver(tile, e, true)
			d2, l2, s2 := b.SATDeliver(tile, e, true)
			if d1 != d2 || l1 != l2 || s1 != s2 {
				t.Fatalf("epoch %d tile %d: SAT stream perturbed by other domains", e, tile)
			}
		}
	}
}

func TestPartitionWindow(t *testing.T) {
	plan := Plan{SAT: SATPlan{PartTileLo: 2, PartTileHi: 6, PartFromEpoch: 10, PartToEpoch: 20}}
	in := NewInjector(&plan, 1, 8, 1)
	cases := []struct {
		tile  int
		epoch uint64
		cut   bool
	}{
		{2, 10, true}, {5, 19, true}, {5, 20, false}, {5, 9, false},
		{1, 15, false}, {6, 15, false}, {3, 15, true},
	}
	for _, c := range cases {
		deliver, _, _ := in.SATDeliver(c.tile, c.epoch, true)
		if deliver == c.cut {
			t.Fatalf("tile %d epoch %d: partitioned=%v, want %v", c.tile, c.epoch, !deliver, c.cut)
		}
	}
	if in.Counters().Get("sat.partitioned") == 0 {
		t.Fatal("partition faults not counted")
	}
}
