package pabst_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"pabst"
)

// ckptScale keeps the matrix fast; bit-identity is checked just as
// rigorously by a short run as a long one.
const (
	ckptWarmup  = 12_000
	ckptMeasure = 20_000
)

// ckptSetup describes one machine shape in the round-trip matrix.
type ckptSetup struct {
	name  string
	build func(opts ...pabst.Option) (*pabst.System, error)
}

func ckptSetups(t *testing.T) []ckptSetup {
	t.Helper()
	streamMix := func(opts ...pabst.Option) (*pabst.System, error) {
		cfg := pabst.Scaled8Config()
		cfg.Seed = 7
		b := pabst.NewBuilder(cfg, pabst.ModePABST, opts...)
		hi := b.AddClass("hi", 7, cfg.L3Ways/2)
		lo := b.AddClass("lo", 3, cfg.L3Ways-cfg.L3Ways/2)
		for i := 0; i < 4; i++ {
			b.Attach(i, hi, pabst.Stream(fmt.Sprintf("hot%d", i), pabst.TileRegion(i), 64, false))
			b.Attach(4+i, lo, pabst.Chaser(fmt.Sprintf("bg%d", i), pabst.TileRegion(4+i), 4, uint64(100+i)))
		}
		return b.Build()
	}
	targetOnly := func(opts ...pabst.Option) (*pabst.System, error) {
		cfg := pabst.Scaled8Config()
		cfg.Seed = 11
		b := pabst.NewBuilder(cfg, pabst.ModeTargetOnly, opts...)
		hi := b.AddClass("fg", 3, cfg.L3Ways/2)
		lo := b.AddClass("bg", 1, cfg.L3Ways-cfg.L3Ways/2)
		for i := 0; i < 4; i++ {
			b.Attach(i, hi, pabst.Stream(fmt.Sprintf("s%d", i), pabst.TileRegion(i), 128, i%2 == 0))
			b.Attach(4+i, lo, pabst.Stream(fmt.Sprintf("t%d", i), pabst.TileRegion(4+i), 64, false))
		}
		return b.Build()
	}
	plan, err := pabst.LoadFaultPlan("sat-drop")
	if err != nil {
		t.Fatalf("load fault plan: %v", err)
	}
	faults := func(opts ...pabst.Option) (*pabst.System, error) {
		cfg := pabst.Scaled8Config()
		cfg.Seed = 13
		cfg.PABST = cfg.PABST.WithDegradation()
		b := pabst.NewBuilder(cfg, pabst.ModePABST, append([]pabst.Option{pabst.WithFaultPlan(plan)}, opts...)...)
		hi := b.AddClass("70%-class", 7, cfg.L3Ways/2)
		lo := b.AddClass("30%-class", 3, cfg.L3Ways-cfg.L3Ways/2)
		for i := 0; i < 4; i++ {
			b.Attach(i, hi, pabst.Stream(fmt.Sprintf("w%d", i), pabst.TileRegion(i), 64, false))
			b.Attach(4+i, lo, pabst.Stream(fmt.Sprintf("v%d", i), pabst.TileRegion(4+i), 64, false))
		}
		return b.Build()
	}
	return []ckptSetup{
		{"streams-pabst", streamMix},
		{"target-only", targetOnly},
		{"faults", faults},
	}
}

// renderState flattens every simulated outcome of a system into
// comparable bytes: the snapshot, the governor registers, and the
// sampled bandwidth series. The scheduler's own diagnostics (cycles
// skipped, per-class dispatch counts) differ between kernels and restart
// at a restore, so they are left out; LateWakes stays in because it must
// be zero everywhere.
func renderState(s *pabst.System) string {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	snap := s.Snapshot()
	snap.SkippedCycles, snap.EventClasses = 0, nil
	if err := enc.Encode(snap); err != nil {
		panic(err)
	}
	if err := enc.Encode(snap.GovernorMs()); err != nil {
		panic(err)
	}
	if err := enc.Encode(s.Series().Samples); err != nil {
		panic(err)
	}
	return buf.String()
}

// TestCheckpointRoundTripMatrix is the checkpoint headline guarantee:
// for three machine shapes (plain PABST, target-only, fault-injected) a
// system checkpointed after warmup and restored continues bit-identical
// to an uninterrupted run — whichever kernel wrote the checkpoint and
// whichever restores it, so a checkpoint taken on the reference loop
// warm-starts the default kernel. The writer must also be unperturbed by
// having been checkpointed.
func TestCheckpointRoundTripMatrix(t *testing.T) {
	kernels := []string{"cycle", ""} // the oracle and the default
	for _, setup := range ckptSetups(t) {
		setup := setup
		t.Run(setup.name, func(t *testing.T) {
			// Uninterrupted reference run on the default kernel.
			ref, err := setup.build()
			if err != nil {
				t.Fatal(err)
			}
			defer ref.Close()
			ref.Warmup(ckptWarmup)
			ref.Run(ckptMeasure)
			want := renderState(ref)

			for _, writer := range kernels {
				// Checkpoint after warmup, then continue the original: the
				// save walk must be a pure read.
				orig, err := setup.build(pabst.WithKernel(writer))
				if err != nil {
					t.Fatal(err)
				}
				orig.Warmup(ckptWarmup)
				var ck bytes.Buffer
				if err := orig.Checkpoint(&ck); err != nil {
					t.Fatalf("checkpoint on kernel %q: %v", writer, err)
				}
				orig.Run(ckptMeasure)
				got := renderState(orig)
				orig.Close()
				if got != want {
					t.Fatalf("kernel %q: checkpointing perturbed the running system\n--- want\n%s\n--- got\n%s", writer, want, got)
				}

				for _, reader := range kernels {
					name := fmt.Sprintf("written on %q, restored on %q", writer, reader)
					sys, err := pabst.Restore(bytes.NewReader(ck.Bytes()), pabst.WithKernel(reader))
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					sys.Run(ckptMeasure)
					if got := renderState(sys); got != want {
						t.Errorf("%s: diverged from uninterrupted run\n--- want\n%s\n--- got\n%s", name, want, got)
					}
					sys.Close()
				}
			}
		})
	}
}

// TestCheckpointBuilderRestore exercises the caller-built restore path
// across kernels: a system checkpointed on the reference loop restores
// into a fresh default-kernel builder bit-identically.
func TestCheckpointBuilderRestore(t *testing.T) {
	setup := ckptSetups(t)[0]

	ref, err := setup.build()
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	ref.Warmup(ckptWarmup)
	ref.Run(ckptMeasure)
	want := renderState(ref)

	src, err := setup.build(pabst.WithKernel("cycle"))
	if err != nil {
		t.Fatal(err)
	}
	src.Warmup(ckptWarmup)
	var ck bytes.Buffer
	if err := src.Checkpoint(&ck); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	src.Close()

	// Restore through a builder describing the same machine.
	cfg := pabst.Scaled8Config()
	cfg.Seed = 7
	b := pabst.NewBuilder(cfg, pabst.ModePABST)
	hi := b.AddClass("hi", 7, cfg.L3Ways/2)
	lo := b.AddClass("lo", 3, cfg.L3Ways-cfg.L3Ways/2)
	for i := 0; i < 4; i++ {
		b.Attach(i, hi, pabst.Stream(fmt.Sprintf("hot%d", i), pabst.TileRegion(i), 64, false))
		b.Attach(4+i, lo, pabst.Chaser(fmt.Sprintf("bg%d", i), pabst.TileRegion(4+i), 4, uint64(100+i)))
	}
	sys, err := b.Restore(bytes.NewReader(ck.Bytes()))
	if err != nil {
		t.Fatalf("builder restore: %v", err)
	}
	defer sys.Close()
	sys.Run(ckptMeasure)
	if got := renderState(sys); got != want {
		t.Errorf("builder-restored run diverged\n--- want\n%s\n--- got\n%s", want, got)
	}
}

// TestCheckpointTypedErrors pins the failure taxonomy: corrupt streams,
// incompatible versions, and structural mismatches each surface their
// dedicated sentinel.
func TestCheckpointTypedErrors(t *testing.T) {
	setup := ckptSetups(t)[0]
	sys, err := setup.build()
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sys.Warmup(ckptWarmup)
	var ck bytes.Buffer
	if err := sys.Checkpoint(&ck); err != nil {
		t.Fatal(err)
	}
	raw := ck.Bytes()

	t.Run("truncated", func(t *testing.T) {
		for _, cut := range []int{4, len(raw) / 3, len(raw) - 4} {
			_, err := pabst.Restore(bytes.NewReader(raw[:cut]))
			if !errors.Is(err, pabst.ErrCkptCorrupt) {
				t.Errorf("cut %d: want ErrCkptCorrupt, got %v", cut, err)
			}
		}
	})

	t.Run("bit-flip", func(t *testing.T) {
		bad := append([]byte(nil), raw...)
		bad[len(bad)-32] ^= 0x40 // payload byte; caught by the CRC trailer
		_, err := pabst.Restore(bytes.NewReader(bad))
		if !errors.Is(err, pabst.ErrCkptCorrupt) {
			t.Errorf("want ErrCkptCorrupt, got %v", err)
		}
	})

	t.Run("version", func(t *testing.T) {
		bad := append([]byte(nil), raw...)
		bad[8]++ // format version lives right after the 8-byte magic
		_, err := pabst.Restore(bytes.NewReader(bad))
		if !errors.Is(err, pabst.ErrCkptVersion) {
			t.Errorf("want ErrCkptVersion, got %v", err)
		}
	})

	t.Run("mismatched-builder", func(t *testing.T) {
		cfg := pabst.Scaled8Config()
		cfg.Seed = 7
		b := pabst.NewBuilder(cfg, pabst.ModePABST)
		hi := b.AddClass("different-name", 7, cfg.L3Ways/2)
		lo := b.AddClass("lo", 3, cfg.L3Ways-cfg.L3Ways/2)
		for i := 0; i < 4; i++ {
			b.Attach(i, hi, pabst.Stream(fmt.Sprintf("hot%d", i), pabst.TileRegion(i), 64, false))
			b.Attach(4+i, lo, pabst.Chaser(fmt.Sprintf("bg%d", i), pabst.TileRegion(4+i), 4, uint64(100+i)))
		}
		_, err := b.Restore(bytes.NewReader(raw))
		if !errors.Is(err, pabst.ErrCkptMismatch) {
			t.Errorf("want ErrCkptMismatch, got %v", err)
		}
	})

	t.Run("mismatched-fault-plan", func(t *testing.T) {
		plan, err := pabst.LoadFaultPlan("sat-drop")
		if err != nil {
			t.Fatal(err)
		}
		_, err = pabst.Restore(bytes.NewReader(raw), pabst.WithFaultPlan(plan))
		if !errors.Is(err, pabst.ErrCkptMismatch) {
			t.Errorf("want ErrCkptMismatch, got %v", err)
		}
	})

	t.Run("info", func(t *testing.T) {
		info, err := pabst.ReadCheckpointInfo(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		if info.Cycle != sys.Now() {
			t.Errorf("info cycle = %d, want %d", info.Cycle, sys.Now())
		}
		fp, err := sys.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if info.Fingerprint != fp {
			t.Errorf("info fingerprint does not match the live system's")
		}
	})
}

// TestCheckpointClosureGenerators pins the two-path contract for
// generators without a build recipe: Checkpoint serializes their state,
// package-level Restore refuses (no recipe in the metadata), and
// Builder.Restore — where the caller reconstructs the closure — works
// bit-identically.
func TestCheckpointClosureGenerators(t *testing.T) {
	build := func() (*pabst.System, error) {
		cfg := pabst.Scaled8Config()
		cfg.Seed = 21
		b := pabst.NewBuilder(cfg, pabst.ModePABST)
		hi := b.AddClass("hi", 3, cfg.L3Ways/2)
		lo := b.AddClass("lo", 1, cfg.L3Ways-cfg.L3Ways/2)
		b.Attach(0, hi, pabst.FilteredStream("skew", pabst.TileRegion(0), 64, false,
			func(a pabst.Addr) bool { return a%128 == 0 }))
		b.Attach(1, lo, pabst.Stream("bg", pabst.TileRegion(1), 64, false))
		return b.Build()
	}

	ref, err := build()
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	ref.Warmup(ckptWarmup)
	ref.Run(ckptMeasure)
	want := renderState(ref)

	src, err := build()
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	src.Warmup(ckptWarmup)
	var ck bytes.Buffer
	if err := src.Checkpoint(&ck); err != nil {
		t.Fatalf("checkpoint with closure generator: %v", err)
	}

	if _, err := pabst.Restore(bytes.NewReader(ck.Bytes())); !errors.Is(err, pabst.ErrCkptUnsupported) {
		t.Errorf("package Restore of closure generator: want ErrCkptUnsupported, got %v", err)
	}

	cfg := pabst.Scaled8Config()
	cfg.Seed = 21
	b := pabst.NewBuilder(cfg, pabst.ModePABST)
	hi := b.AddClass("hi", 3, cfg.L3Ways/2)
	lo := b.AddClass("lo", 1, cfg.L3Ways-cfg.L3Ways/2)
	b.Attach(0, hi, pabst.FilteredStream("skew", pabst.TileRegion(0), 64, false,
		func(a pabst.Addr) bool { return a%128 == 0 }))
	b.Attach(1, lo, pabst.Stream("bg", pabst.TileRegion(1), 64, false))
	sys, err := b.Restore(bytes.NewReader(ck.Bytes()))
	if err != nil {
		t.Fatalf("builder restore: %v", err)
	}
	defer sys.Close()
	sys.Run(ckptMeasure)
	if got := renderState(sys); got != want {
		t.Errorf("closure-generator restore diverged\n--- want\n%s\n--- got\n%s", want, got)
	}
}
