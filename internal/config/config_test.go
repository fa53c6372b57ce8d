package config

import (
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"pabst/internal/fault"
)

func TestDefault32Valid(t *testing.T) {
	s := Default32()
	if err := s.Validate(); err != nil {
		t.Fatalf("Default32 invalid: %v", err)
	}
	if s.NumTiles() != 32 {
		t.Fatalf("NumTiles = %d", s.NumTiles())
	}
	if s.L3TotalBytes() != 16*1024*1024 {
		t.Fatalf("L3 total = %d, want 16 MiB", s.L3TotalBytes())
	}
}

func TestScaled8Valid(t *testing.T) {
	s := Scaled8()
	if err := s.Validate(); err != nil {
		t.Fatalf("Scaled8 invalid: %v", err)
	}
	if s.NumTiles() != 8 || s.NumMCs != 1 {
		t.Fatalf("scaled system %d tiles, %d MCs", s.NumTiles(), s.NumMCs)
	}
	// Shared resources scaled ~4x down.
	big := Default32()
	if s.L3TotalBytes()*4 != big.L3TotalBytes() {
		t.Fatalf("L3 not scaled 4x: %d vs %d", s.L3TotalBytes(), big.L3TotalBytes())
	}
	if s.PeakBytesPerCycle()*4 != big.PeakBytesPerCycle() {
		t.Fatal("peak bandwidth not scaled 4x")
	}
}

func TestScaleDRAM(t *testing.T) {
	s := Default32()
	slow := s.ScaleDRAM(4)
	if slow.DRAM.Timing.TBurst != 4*s.DRAM.Timing.TBurst {
		t.Fatal("ScaleDRAM did not slow the bus")
	}
	if s.DRAM.Timing.TBurst == slow.DRAM.Timing.TBurst {
		t.Fatal("ScaleDRAM mutated the receiver")
	}
	if slow.PeakBytesPerCycle()*4 != s.PeakBytesPerCycle() {
		t.Fatal("quarter-frequency DRAM should have quarter bandwidth")
	}
}

func TestValidateCatchesMismatches(t *testing.T) {
	muts := []func(*System){
		func(s *System) { s.MeshCols = 0 },
		func(s *System) { s.NoC.Cols = 5 },
		func(s *System) { s.NoC.NumMCs = 2 },
		func(s *System) { s.Core.WindowOps = 0 },
		func(s *System) { s.MaxMSHRs = 0 },
		func(s *System) { s.L2Bytes = 0 },
		func(s *System) { s.L1Bytes, s.L1Ways = 32<<10, 512 }, // one set, wider than the rank field holds
		func(s *System) { s.DRAM.Banks = 3 },
		func(s *System) { s.PABST.ScaleF = 0 },
		func(s *System) { s.BWWindow = 0 },
		func(s *System) { s.Faults = &fault.Plan{SAT: fault.SATPlan{DropProb: 2}} },
		func(s *System) {
			s.Faults = &fault.Plan{SAT: fault.SATPlan{DelayCycles: s.PABST.EpochCycles}}
		},
		func(s *System) {
			s.ModelNoC = true
			s.Faults = &fault.Plan{NoC: fault.NoCPlan{DropProb: 0.01}}
		},
	}
	for i, mut := range muts {
		s := Default32()
		mut(&s)
		err := s.Validate()
		if err == nil {
			t.Fatalf("mutation %d accepted", i)
		}
		// Every rejection wraps the sentinel so CLIs can exit cleanly.
		if !errors.Is(err, ErrInvalid) {
			t.Fatalf("mutation %d: error does not wrap ErrInvalid: %v", i, err)
		}
	}
}

// TestValidateBoundsWays pins the one limit the cache's 5-bit recency
// ranks add: 32 ways is rejected in each cache, with a power-of-two set
// count (one set for the L1) so only the width is wrong, and each ways
// field names itself. 31 ways, the widest set the rank field holds, is
// accepted.
func TestValidateBoundsWays(t *testing.T) {
	for _, c := range []struct {
		field string
		mut   func(*System)
	}{
		{"L1Ways", func(s *System) { s.L1Bytes, s.L1Ways = 32*64, 32 }},
		{"L2Ways", func(s *System) { s.L2Ways = 32 }},
		{"L3Ways", func(s *System) { s.L3Ways = 32 }},
	} {
		s := Default32()
		c.mut(&s)
		err := s.Validate()
		if !errors.Is(err, ErrInvalid) || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s = 32: Validate = %v, want ErrInvalid naming the field", c.field, err)
		}
	}
	s := Default32()
	s.L3SliceBytes, s.L3Ways = 31*4*64, 31 // 4 sets of the widest set a rank field holds
	if err := s.Validate(); err != nil {
		t.Errorf("31 ways rejected: %v", err)
	}
}

func TestValidFaultPlanAccepted(t *testing.T) {
	s := Default32()
	p, err := fault.Preset("everything")
	if err != nil {
		t.Fatal(err)
	}
	s.Faults = &p
	if err := s.Validate(); err != nil {
		t.Fatalf("faulted config rejected: %v", err)
	}
}

// TestValidateModelNoCRefusesNoCFaults pins that the modeled fabric,
// which has no hook that applies a NoC fault, refuses a plan with an
// active NoC half and names both fields, while it takes the plan's
// other halves.
func TestValidateModelNoCRefusesNoCFaults(t *testing.T) {
	s := Default32()
	s.ModelNoC = true
	s.Faults = &fault.Plan{NoC: fault.NoCPlan{DelayProb: 1, DelayCycles: 5000}}
	err := s.Validate()
	if !errors.Is(err, ErrInvalid) || !strings.Contains(err.Error(), "ModelNoC") || !strings.Contains(err.Error(), "Faults.NoC") {
		t.Fatalf("modeled NoC with NoC faults: Validate = %v, want ErrInvalid naming ModelNoC and Faults.NoC", err)
	}
	p, err := fault.Preset("everything")
	if err != nil {
		t.Fatal(err)
	}
	p.NoC = fault.NoCPlan{}
	s.Faults = &p
	if err := s.Validate(); err != nil {
		t.Fatalf("modeled NoC with SAT and DRAM faults rejected: %v", err)
	}
}

// TestJSONRoundTrip: a configuration survives JSON encoding unchanged,
// as it must to ride in a checkpoint header and come back through
// pabst.Restore as the same machine.
func TestJSONRoundTrip(t *testing.T) {
	noc := Scaled8()
	noc.ModelNoC = true
	for _, s := range []System{Default32(), Scaled8(), MeshScaled(4, 4), noc} {
		raw, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var got System
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if !reflect.DeepEqual(got, s) {
			t.Fatalf("%s: round trip mismatch:\n got %+v\nwant %+v", s.Name, got, s)
		}
	}
}
