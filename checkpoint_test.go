package pabst_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc64"
	"regexp"
	"runtime"
	"testing"

	"pabst"
	"pabst/internal/ckpt"
	"pabst/internal/workload"
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
		cfg.Faults = plan
		b := pabst.NewBuilder(cfg, pabst.ModePABST, opts...)
		hi := b.AddClass("70%-class", 7, cfg.L3Ways/2)
		lo := b.AddClass("30%-class", 3, cfg.L3Ways-cfg.L3Ways/2)
		for i := 0; i < 4; i++ {
			b.Attach(i, hi, pabst.Stream(fmt.Sprintf("w%d", i), pabst.TileRegion(i), 64, false))
			b.Attach(4+i, lo, pabst.Stream(fmt.Sprintf("v%d", i), pabst.TileRegion(4+i), 64, false))
		}
		return b.Build()
	}
	nocPlan, err := pabst.LoadFaultPlan("noc-storm")
	if err != nil {
		t.Fatalf("load fault plan: %v", err)
	}
	nocFaults := func(opts ...pabst.Option) (*pabst.System, error) {
		cfg := pabst.Scaled8Config()
		cfg.Seed = 17
		cfg.Faults = nocPlan
		b := pabst.NewBuilder(cfg, pabst.ModePABST, opts...)
		hi := b.AddClass("hi", 3, cfg.L3Ways/2)
		lo := b.AddClass("lo", 1, cfg.L3Ways-cfg.L3Ways/2)
		for i := 0; i < 4; i++ {
			b.Attach(i, hi, pabst.Chaser(fmt.Sprintf("c%d", i), pabst.TileRegion(i), 4, uint64(20+i)))
			b.Attach(4+i, lo, pabst.Stream(fmt.Sprintf("s%d", i), pabst.TileRegion(4+i), 64, true))
		}
		return b.Build()
	}
	return []ckptSetup{
		{"streams-pabst", streamMix},
		{"target-only", targetOnly},
		{"faults", faults},
		{"noc-faults", nocFaults},
	}
}

// renderState flattens every simulated outcome of a system into
// comparable bytes: the snapshot, the governor registers, the sampled
// bandwidth series, and the fault report. The scheduler's own diagnostics (cycles
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
	if err := enc.Encode(s.FaultReport()); err != nil {
		panic(err)
	}
	return buf.String()
}

// TestCheckpointRoundTripMatrix is the checkpoint headline guarantee:
// for four machine shapes (plain PABST, target-only, SAT-faulted,
// NoC-faulted) a
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
// onto a freshly built default-kernel system bit-identically.
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

	// Restore onto a second build of the same machine.
	sys, err := setup.build()
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := sys.RestoreFrom(bytes.NewReader(ck.Bytes())); err != nil {
		t.Fatalf("builder restore: %v", err)
	}
	sys.Run(ckptMeasure)
	if got := renderState(sys); got != want {
		t.Errorf("builder-restored run diverged\n--- want\n%s\n--- got\n%s", want, got)
	}
}

// reweigh rewrites the two class weights a two-class image carries — in
// the header metadata pabst.Restore rebuilds the registry from, and in the
// payload's QoS section (per class: weight, stride, threads, two demand
// words) every restore overlays — and re-seals the CRC.
func reweigh(t testing.TB, img []byte, w [2]uint64) []byte {
	c, err := ckpt.Decode(img)
	if err != nil {
		t.Fatal(err)
	}
	old, i := c.Header().Meta, 0
	meta := regexp.MustCompile(`"weight":\d+`).ReplaceAllFunc(old, func([]byte) []byte {
		i++
		return fmt.Appendf(nil, `"weight":%d`, w[i-1])
	})
	const metaLen = 8 + 4 + 32 + 8 // after magic, version, fingerprint, cycle
	out := binary.LittleEndian.AppendUint64(bytes.Clone(img[:metaLen]), uint64(len(meta)))
	out = append(append(out, meta...), img[metaLen+8+len(old):len(img)-8]...)
	qos := bytes.Index(out, []byte("\xa5\x03\x00\x00\x00\x00\x00\x00\x00qos")) + 12 + 8 // tag, class count
	binary.LittleEndian.PutUint64(out[qos:], w[0])
	binary.LittleEndian.PutUint64(out[qos+40:], w[1])
	return binary.LittleEndian.AppendUint64(out, crc64.Checksum(out, crc64.MakeTable(crc64.ECMA)))
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
		// A newer build's file, and the previous formats': an intact
		// Version-10 or Version-9 image (CRC re-sealed) is refused, not
		// migrated.
		for _, v := range []uint32{12, 10, 9} {
			bad := append([]byte(nil), raw[:len(raw)-8]...)
			binary.LittleEndian.PutUint32(bad[8:], v) // the version word follows the 8-byte magic
			bad = binary.LittleEndian.AppendUint64(bad, crc64.Checksum(bad, crc64.MakeTable(crc64.ECMA)))
			_, err := pabst.Restore(bytes.NewReader(bad))
			if !errors.Is(err, pabst.ErrCkptVersion) {
				t.Errorf("version %d: want ErrCkptVersion, got %v", v, err)
			}
		}
	})

	// other builds the saved machine's shape from cfg, its high class
	// named hiName; each mismatch below changes one thing.
	other := func(t *testing.T, cfg pabst.SystemConfig, hiName string) *pabst.System {
		t.Helper()
		b := pabst.NewBuilder(cfg, pabst.ModePABST)
		hi := b.AddClass(hiName, 7, cfg.L3Ways/2)
		lo := b.AddClass("lo", 3, cfg.L3Ways-cfg.L3Ways/2)
		for i := 0; i < 4; i++ {
			b.Attach(i, hi, pabst.Stream(fmt.Sprintf("hot%d", i), pabst.TileRegion(i), 64, false))
			b.Attach(4+i, lo, pabst.Chaser(fmt.Sprintf("bg%d", i), pabst.TileRegion(4+i), 4, uint64(100+i)))
		}
		sys, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(sys.Close)
		return sys
	}

	t.Run("mismatched-builder", func(t *testing.T) {
		cfg := pabst.Scaled8Config()
		cfg.Seed = 7
		if err := other(t, cfg, "different-name").RestoreFrom(bytes.NewReader(raw)); !errors.Is(err, pabst.ErrCkptMismatch) {
			t.Errorf("want ErrCkptMismatch, got %v", err)
		}
	})

	t.Run("mismatched-fault-plan", func(t *testing.T) {
		plan, err := pabst.LoadFaultPlan("sat-drop")
		if err != nil {
			t.Fatal(err)
		}
		cfg := pabst.Scaled8Config()
		cfg.Seed, cfg.Faults = 7, plan
		if err := other(t, cfg, "hi").RestoreFrom(bytes.NewReader(raw)); !errors.Is(err, pabst.ErrCkptMismatch) {
			t.Errorf("want ErrCkptMismatch, got %v", err)
		}
	})

	t.Run("mismatched-policy", func(t *testing.T) {
		if _, err := pabst.Restore(bytes.NewReader(raw), pabst.WithPolicy("", "dpq")); !errors.Is(err, pabst.ErrCkptMismatch) {
			t.Errorf("want ErrCkptMismatch, got %v", err)
		}
	})

	t.Run("hostile-weights", func(t *testing.T) {
		// Weights whose stride vector overflows (this pair divided by zero
		// inside AddClass), a zero weight, a stride that is not its weight's.
		for _, w := range [][2]uint64{{1<<62 + 1, 1<<62 + 3}, {0, 3}, {3, 7}} {
			bad := reweigh(t, raw, w)
			onto, err := setup.build()
			if err != nil {
				t.Fatal(err)
			}
			defer onto.Close()
			_, rerr := pabst.Restore(bytes.NewReader(bad))
			if ferr := onto.RestoreFrom(bytes.NewReader(bad)); !errors.Is(rerr, pabst.ErrCkptCorrupt) || !errors.Is(ferr, pabst.ErrCkptCorrupt) {
				t.Errorf("weights %d:%d: Restore = %v, RestoreFrom = %v; want ErrCkptCorrupt from both", w[0], w[1], rerr, ferr)
			}
		}
	})

	t.Run("info", func(t *testing.T) {
		c, err := ckpt.Decode(raw)
		if err != nil {
			t.Fatal(err)
		}
		info := c.Header()
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
// RestoreFrom onto a system whose builder reconstructed the closure
// works bit-identically.
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

	sys, err := build()
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := sys.RestoreFrom(bytes.NewReader(ck.Bytes())); err != nil {
		t.Fatalf("builder restore: %v", err)
	}
	sys.Run(ckptMeasure)
	if got := renderState(sys); got != want {
		t.Errorf("closure-generator restore diverged\n--- want\n%s\n--- got\n%s", want, got)
	}
}

// TestCheckpointBytesAreTheMachine pins that a checkpoint is a function
// of the machine, not of the scheduler that ran it: at equal cycles the
// reference loop and the event kernel write byte-identical images. Any
// scheduler counter in a walk, or any state a FastForward leaves
// differently from the ticks it replaces, fails it. Beside the
// round-trip matrix's shapes it runs two write-drain machines. In
// "drain-then-idle" every burst of 256 dirtying stores is followed by a
// 20k-cycle gap, so the controller ends each write drain idle for
// thousands of cycles: the oracle's first idle tick clears its
// write-mode register, and a sleeping controller must clear it too (a
// FastForward that leaves it set fails this machine).
func TestCheckpointBytesAreTheMachine(t *testing.T) {
	streamAndBursts := func(opts ...pabst.Option) (*pabst.System, error) {
		cfg := pabst.Scaled8Config()
		b := pabst.NewBuilder(cfg, pabst.Mode{Source: "static", Target: "fcfs"}, opts...)
		wr := b.AddClass("wr", 1, cfg.L3Ways/2)
		bg := b.AddClass("bg", 1, cfg.L3Ways-cfg.L3Ways/2)
		b.Attach(0, wr, pabst.Stream("wr", pabst.TileRegion(0), 64, true))
		b.Attach(1, bg, pabst.BurstyTraffic("burst", pabst.TileRegion(1), 16, 5000, 1))
		return b.Build()
	}
	drainThenIdle := func(opts ...pabst.Option) (*pabst.System, error) {
		cfg := pabst.Scaled8Config()
		cfg.L1Bytes, cfg.L2Bytes, cfg.L3SliceBytes = 1<<10, 4<<10, 8<<10 // 4096 lines overflow every level
		ops := make([]workload.Op, 4096)
		for i := range ops {
			ops[i] = workload.Op{Addr: pabst.TileRegion(0).Base + pabst.Addr(i*64), Write: true, Insts: 1}
			if i%256 == 0 {
				ops[i].Gap = 20_000
			}
		}
		gen, err := pabst.Replay("drain", ops)
		if err != nil {
			return nil, err
		}
		b := pabst.NewBuilder(cfg, pabst.Mode{Source: "static", Target: "fcfs"}, opts...)
		b.Attach(0, b.AddClass("wr", 1, cfg.L3Ways), gen)
		return b.Build()
	}
	setups := append(ckptSetups(t), ckptSetup{"stream-and-bursts", streamAndBursts}, ckptSetup{"drain-then-idle", drainThenIdle})
	for _, setup := range setups {
		t.Run(setup.name, func(t *testing.T) {
			var imgs [2][]byte
			for i, kernel := range []string{"cycle", ""} {
				sys, err := setup.build(pabst.WithKernel(kernel))
				if err != nil {
					t.Fatal(err)
				}
				sys.Run(300_000)
				var ck bytes.Buffer
				if err := sys.Checkpoint(&ck); err != nil {
					t.Fatal(err)
				}
				sys.Close()
				imgs[i] = ck.Bytes()
			}
			if !bytes.Equal(imgs[0], imgs[1]) {
				at := 0
				for at < min(len(imgs[0]), len(imgs[1])) && imgs[0][at] == imgs[1][at] {
					at++
				}
				t.Fatalf("oracle and event kernel wrote different images (%d vs %d bytes, first difference at byte %d)",
					len(imgs[0]), len(imgs[1]), at)
			}
		})
	}
}

// TestCheckpointFormatFrozen pins the persisted form of a machine:
// checkpoint bytes and machine fingerprints (what RestoreFrom checks) equal
// the constants captured when Version 11 dropped the fault injector's
// shared NoC stream and per-sender tallies from the walk (these machines
// have no fault plan, so only the version word and the trailer moved;
// the fingerprints are Version 10's). The mechanism is recorded once, as the resolved pair, so a pair
// spelled as an override and the same pair spelled as the builder's
// mode are one machine. A change to any payload byte must bump
// ckpt.Version — that is a format change, not a baseline update.
func TestCheckpointFormatFrozen(t *testing.T) {
	const (
		dpqMachine = "fa715b4f363155683be5a5b799929ed29c24918579159245b1a97f045f78bee2"
		dpqContent = "0e157a5489ca9b49340e92e293ec7a7348c3b223cc42f0a24d1073cdde50081b"
	)
	for _, c := range []struct {
		name             string
		mode             pabst.Mode
		opts             []pabst.Option
		pair             string
		machine, content string
	}{
		{"default", pabst.ModeSourceOnly, nil, "pabst+fcfs",
			"684874b818361f1d00577c2cfea02c653d57a1e6d41342718718333546cf702e",
			"a660a2e8732ac5b4cd16e4c52e5c2096d6f8a130d98293d1a1913ec27ec0dfe7"},
		{"overridden", pabst.ModeSourceOnly, []pabst.Option{pabst.WithPolicy("", "dpq")}, "pabst+dpq",
			dpqMachine, dpqContent},
		{"spelled-as-mode", pabst.Mode{Source: "pabst", Target: "dpq"}, nil, "pabst+dpq",
			dpqMachine, dpqContent},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := pabst.Default32Config()
			cfg.PABST.EpochCycles = 2000
			cfg.BWWindow = 2000
			b := pabst.NewBuilder(cfg, c.mode, c.opts...)
			hi := b.AddClass("hi", 3, cfg.L3Ways/2)
			lo := b.AddClass("lo", 1, cfg.L3Ways/2)
			for i := 0; i < 16; i++ {
				b.Attach(i, hi, pabst.Stream("stream", pabst.TileRegion(i), 128, true))
				b.Attach(16+i, lo, pabst.Stream("stream", pabst.TileRegion(16+i), 128, true))
			}
			sys, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			if src, tgt := sys.PolicyPair(); src+"+"+tgt != c.pair {
				t.Fatalf("wired %s+%s, want %s", src, tgt, c.pair)
			}
			sys.Run(20_000)
			var ck bytes.Buffer
			if err := sys.Checkpoint(&ck); err != nil {
				t.Fatal(err)
			}
			fp, err := sys.Fingerprint()
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", fp); got != c.machine {
				t.Errorf("machine fingerprint %s, frozen %s", got, c.machine)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(ck.Bytes())); got != c.content {
				t.Errorf("checkpoint bytes hash %s, frozen %s", got, c.content)
			}
			if v := binary.LittleEndian.Uint32(ck.Bytes()[8:]); v != 11 { // the version word follows the 8-byte magic
				t.Errorf("checkpoint format version %d, frozen 11", v)
			}
			// The self-describing restore reads the same selection back.
			back, err := pabst.Restore(bytes.NewReader(ck.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			defer back.Close()
			if src, tgt := back.PolicyPair(); src+"+"+tgt != c.pair {
				t.Errorf("restored machine wired %s+%s, want %s", src, tgt, c.pair)
			}
		})
	}
}

// fuzzMachines are the small machines FuzzRestore restores onto: short
// windows and few-KB caches keep an image near 20 KB, so the fuzzer
// spends its time in the walk rather than copying cache lines. One has
// every fault domain armed, the other the modeled NoC, and between them
// they attach every describable generator kind.
func fuzzMachines(t testing.TB) []func(opts ...pabst.Option) *pabst.Builder {
	plan, err := pabst.LoadFaultPlan("everything")
	if err != nil {
		t.Fatal(err)
	}
	small := func(seed uint64) pabst.SystemConfig {
		cfg := pabst.Scaled8Config()
		cfg.Seed = seed
		cfg.Core.WindowOps = 8
		cfg.L1Bytes, cfg.L2Bytes, cfg.L3SliceBytes = 1<<10, 4<<10, 8<<10
		cfg.PABST.EpochCycles, cfg.BWWindow = 2000, 1000
		return cfg
	}
	attach := func(b *pabst.Builder, cfg pabst.SystemConfig) *pabst.Builder {
		hi := b.AddClass("hi", 3, cfg.L3Ways/2)
		lo := b.AddClass("lo", 1, cfg.L3Ways-cfg.L3Ways/2)
		b.Attach(0, hi, pabst.Stream("rd", pabst.TileRegion(0), 64, false))
		b.Attach(1, hi, pabst.Stream("wr", pabst.TileRegion(1), 128, true))
		b.Attach(2, hi, pabst.Chaser("chase", pabst.TileRegion(2), 4, 9))
		b.Attach(3, hi, pabst.BurstyTraffic("burst", pabst.TileRegion(3), 8, 300, 3))
		b.Attach(4, lo, pabst.MemcachedServer(pabst.TileRegion(4), 5))
		b.Attach(5, lo, pabst.Stream("bg", pabst.TileRegion(5), 64, false))
		return b
	}
	return []func(opts ...pabst.Option) *pabst.Builder{
		func(opts ...pabst.Option) *pabst.Builder {
			cfg := small(3)
			cfg.Faults = plan
			return attach(pabst.NewBuilder(cfg, pabst.ModePABST, opts...), cfg)
		},
		func(opts ...pabst.Option) *pabst.Builder {
			cfg := small(5)
			cfg.ModelNoC = true
			return attach(pabst.NewBuilder(cfg, pabst.ModePABST, append(opts, pabst.WithPolicy("", "dpq"))...), cfg)
		},
	}
}

// FuzzRestore is the checkpoint trust boundary's fuzz target (every
// component's Ckpt walk, loading). The seeds are real checkpoints of the
// two fuzzMachines, each written on both kernels. The target re-seals a
// mutated image with a fresh CRC — so mutations reach the walk instead of
// dying at the envelope — and restores it onto the machine its header
// names. Whatever the bytes say, the restore must return a system or a
// typed checkpoint error, must not panic, and must not allocate more
// than a small multiple of the image; a system it returns must then run
// 2 000 cycles without panicking, so a load check that lets through a
// machine that cannot run fails here rather than in a user's Run.
func FuzzRestore(f *testing.F) {
	machines := fuzzMachines(f)
	byFingerprint := map[[32]byte]func(opts ...pabst.Option) *pabst.Builder{}
	var last []byte
	for _, m := range machines {
		for _, kernel := range []string{"event", "cycle"} {
			sys, err := m(pabst.WithKernel(kernel)).Build()
			if err != nil {
				f.Fatal(err)
			}
			sys.Run(6_000)
			var img bytes.Buffer
			if err := sys.Checkpoint(&img); err != nil {
				f.Fatal(err)
			}
			fp, _ := sys.Fingerprint()
			byFingerprint[fp] = m
			sys.Close()
			f.Add(img.Bytes())
			last = img.Bytes()
		}
	}
	f.Add(reweigh(f, last, [2]uint64{1<<62 + 1, 1<<62 + 3})) // no stride vector fits 64 bits
	ecma := crc64.MakeTable(crc64.ECMA)
	f.Fuzz(func(t *testing.T, img []byte) {
		if len(img) < 8 {
			return
		}
		img = binary.LittleEndian.AppendUint64(img[:len(img)-8:len(img)-8], crc64.Checksum(img[:len(img)-8], ecma))
		m := machines[0]
		if c, err := ckpt.Decode(img); err == nil && byFingerprint[c.Header().Fingerprint] != nil {
			m = byFingerprint[c.Header().Fingerprint]
		}
		sys, err := m().Build()
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err = sys.RestoreFrom(bytes.NewReader(img))
		runtime.ReadMemStats(&after)
		if err != nil && !errors.Is(err, pabst.ErrCkptCorrupt) && !errors.Is(err, pabst.ErrCkptVersion) &&
			!errors.Is(err, pabst.ErrCkptMismatch) && !errors.Is(err, pabst.ErrCkptUnsupported) {
			t.Fatalf("restore failed with an untyped error: %v", err)
		}
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(8*len(img)+1<<20); grew > limit {
			t.Fatalf("restoring a %d-byte image allocated %d bytes (limit %d)", len(img), grew, limit)
		}
		if err == nil {
			sys.Run(2_000)
		}
	})
}
