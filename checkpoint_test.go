package pabst_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc64"
	"reflect"
	"regexp"
	"runtime"
	"runtime/debug"
	"slices"
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

func ckptSetups(t testing.TB) []ckptSetup {
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
	rep := s.FaultReport()
	if err := enc.Encode(rep); err != nil {
		panic(err)
	}
	// The injected counts by kind, in the order each kind first fired:
	// the report's JSON carries the counter set's exported fields only,
	// and it has none.
	if rep.Injected != nil {
		img, err := ckpt.Encode(ckpt.Header{}, rep.Injected)
		if err != nil {
			panic(err)
		}
		fmt.Fprintf(&buf, "%x\n", img)
	}
	return buf.String()
}

// TestCheckpointRoundTripMatrix is the checkpoint headline guarantee:
// for four machine shapes (plain PABST, target-only, SAT-faulted,
// NoC-faulted) a system checkpointed after warmup and restored continues
// bit-identical to an uninterrupted run, whichever kernel wrote the
// checkpoint, so an image taken on the reference loop warm-starts the
// default kernel. The writer must also be unperturbed by having been
// checkpointed.
func TestCheckpointRoundTripMatrix(t *testing.T) {
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

			for _, writer := range []string{"cycle", ""} { // the oracle and the default
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

				sys, err := pabst.Restore(bytes.NewReader(ck.Bytes()))
				if err != nil {
					t.Fatalf("written on %q: %v", writer, err)
				}
				sys.Run(ckptMeasure)
				if got := renderState(sys); got != want {
					t.Errorf("written on %q: diverged from uninterrupted run\n--- want\n%s\n--- got\n%s", writer, want, got)
				}
				sys.Close()
			}
		})
	}
}

// seal appends the CRC trailer that lets an image body through Decode.
func seal(body []byte) []byte {
	return binary.LittleEndian.AppendUint64(body, crc64.Checksum(body, crc64.MakeTable(crc64.ECMA)))
}

// remeta replaces each match of pattern in an image's header metadata
// with repl (regexp.ReplaceAll's syntax) and re-seals the CRC, so the
// image reaches Restore with metadata that says what the test wants.
func remeta(t testing.TB, img []byte, pattern, repl string) []byte {
	c, err := ckpt.Decode(img)
	if err != nil {
		t.Fatal(err)
	}
	old := c.Header().Meta
	meta := regexp.MustCompile(pattern).ReplaceAll(old, []byte(repl))
	if bytes.Equal(meta, old) {
		t.Fatalf("%q matches nothing in the metadata %s", pattern, old)
	}
	const metaAt = 8 + 4 + 8 // after magic, version, cycle
	out := binary.LittleEndian.AppendUint64(bytes.Clone(img[:metaAt]), uint64(len(meta)))
	return seal(append(append(out, meta...), img[metaAt+8+len(old):len(img)-8]...))
}

// reweigh rewrites the two class weights a two-class image carries — in
// the header metadata Restore rebuilds the registry from, and in the
// payload's QoS section (per class: weight, stride, threads, two demand
// words) the load overlays — and re-seals the CRC.
func reweigh(t testing.TB, img []byte, w [2]uint64) []byte {
	out := remeta(t, img, `"weight":\d+(.*)"weight":\d+`, fmt.Sprintf(`"weight":%d$1"weight":%d`, w[0], w[1]))
	out = out[:len(out)-8]
	qos := bytes.Index(out, []byte("\xa5\x03\x00\x00\x00\x00\x00\x00\x00qos")) + 12 + 8 // tag, class count
	binary.LittleEndian.PutUint64(out[qos:], w[0])
	binary.LittleEndian.PutUint64(out[qos+40:], w[1])
	return seal(out)
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
		// Version-11 or Version-10 image (CRC re-sealed) is refused, not
		// migrated.
		for _, v := range []uint32{13, 11, 10} {
			bad := append([]byte(nil), raw[:len(raw)-8]...)
			binary.LittleEndian.PutUint32(bad[8:], v) // the version word follows the 8-byte magic
			_, err := pabst.Restore(bytes.NewReader(seal(bad)))
			if !errors.Is(err, pabst.ErrCkptVersion) {
				t.Errorf("version %d: want ErrCkptVersion, got %v", v, err)
			}
		}
	})

	// The metadata builds one machine and the payload describes another:
	// each mismatch below changes the metadata alone.
	plan, err := pabst.LoadFaultPlan("sat-drop")
	if err != nil {
		t.Fatal(err)
	}
	planJSON, err := json.Marshal(plan)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, pattern, repl string
		want                error
	}{
		{"mismatched-builder", `"WindowOps":48`, `"WindowOps":16`, pabst.ErrCkptMismatch},
		{"mismatched-fault-plan", `"WBCharge"`, `"Faults":` + string(planJSON) + `,"WBCharge"`, pabst.ErrCkptCorrupt},
		{"mismatched-policy", `"mode":"pabst"`, `"mode":"pabst+dpq"`, pabst.ErrCkptCorrupt},
	} {
		t.Run(c.name, func(t *testing.T) {
			if _, err := pabst.Restore(bytes.NewReader(remeta(t, raw, c.pattern, c.repl))); !errors.Is(err, c.want) {
				t.Errorf("want %v, got %v", c.want, err)
			}
		})
	}

	t.Run("hostile-weights", func(t *testing.T) {
		// Weights whose stride vector overflows (this pair divided by zero
		// inside AddClass), a zero weight, a stride that is not its weight's.
		for _, w := range [][2]uint64{{1<<62 + 1, 1<<62 + 3}, {0, 3}, {3, 7}} {
			if _, err := pabst.Restore(bytes.NewReader(reweigh(t, raw, w))); !errors.Is(err, pabst.ErrCkptCorrupt) {
				t.Errorf("weights %d:%d: want ErrCkptCorrupt, got %v", w[0], w[1], err)
			}
		}
	})

	t.Run("info", func(t *testing.T) {
		c, err := ckpt.Decode(raw)
		if err != nil {
			t.Fatal(err)
		}
		if info := c.Header(); info.Cycle != sys.Now() {
			t.Errorf("info cycle = %d, want %d", info.Cycle, sys.Now())
		}
	})
}

// craftedImage is a CRC-valid image whose metadata asks for a machine
// Restore cannot build.
type craftedImage struct {
	name string
	img  []byte
}

// craftedImages rewrite one value each in an image of an 8-tile machine:
// a generator's constructor would panic on the first two, and the
// machines the last two describe do not fit in memory (the
// 3037000499×3037000499 mesh is the largest whose tile count fits an
// int).
func craftedImages(t testing.TB, img []byte) []craftedImage {
	return []craftedImage{
		{"chaser with no chains", remeta(t, img, `("kind":"chaser","name":"[^"]*","u":\[\d+,\d+,)\d+`, `${1}0`)},
		{"stream over no bytes", remeta(t, img, `("kind":"stream","name":"[^"]*","u":\[\d+,)\d+`, `${1}0`)},
		{"huge mesh", remeta(t, img, `"MeshCols":4,"MeshRows":2(.*)"Cols":4,"Rows":2`,
			`"MeshCols":3037000499,"MeshRows":3037000499$1"Cols":3037000499,"Rows":3037000499`)},
		{"2^62 MSHRs", remeta(t, img, `"MaxMSHRs":16`, `"MaxMSHRs":4611686018427387904`)},
	}
}

// TestRestoreRefusesWhatItCannotBuild: metadata is part of the image, so
// a recipe a constructor would panic on and a machine too large to build
// are ErrCkptCorrupt before anything is built. Each of these images
// panicked Restore before it bounded the metadata.
func TestRestoreRefusesWhatItCannotBuild(t *testing.T) {
	sys, err := ckptSetups(t)[0].build()
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(2_000)
	var img bytes.Buffer
	if err := sys.Checkpoint(&img); err != nil {
		t.Fatal(err)
	}
	for _, c := range craftedImages(t, img.Bytes()) {
		if _, err := pabst.Restore(bytes.NewReader(c.img)); !errors.Is(err, pabst.ErrCkptCorrupt) {
			t.Errorf("%s: want ErrCkptCorrupt, got %v", c.name, err)
		}
	}
}

// TestCheckpointClosureGenerators pins the contract for generators
// without a build recipe: Checkpoint serializes their state, and Restore
// refuses the image (no recipe in the metadata).
func TestCheckpointClosureGenerators(t *testing.T) {
	cfg := pabst.Scaled8Config()
	cfg.Seed = 21
	b := pabst.NewBuilder(cfg, pabst.ModePABST)
	hi := b.AddClass("hi", 3, cfg.L3Ways/2)
	lo := b.AddClass("lo", 1, cfg.L3Ways-cfg.L3Ways/2)
	b.Attach(0, hi, pabst.FilteredStream("skew", pabst.TileRegion(0), 64, false,
		func(a pabst.Addr) bool { return a%128 == 0 }))
	b.Attach(1, lo, pabst.Stream("bg", pabst.TileRegion(1), 64, false))
	src, err := b.Build()
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
		t.Errorf("Restore of closure generator: want ErrCkptUnsupported, got %v", err)
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
		gen, err := workload.NewReplayer("drain", ops)
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

// TestCheckpointFormatFrozen pins the persisted form of a machine: the
// checkpoint bytes hash to the constants captured when Version 12 dropped
// the header's machine fingerprint, the payload unchanged since Version
// 11. The mechanism is recorded once, as the resolved pair, so a pair
// spelled as an override and the same pair spelled as the builder's mode
// write one image. A change to any payload byte must bump ckpt.Version —
// that is a format change, not a baseline update.
func TestCheckpointFormatFrozen(t *testing.T) {
	const dpqContent = "f0c69265a0c36a9979b3434b6d382c7c3a6b349a5b3248289684fbcb1d2787b9"
	for _, c := range []struct {
		name    string
		mode    pabst.Mode
		opts    []pabst.Option
		pair    string
		content string
	}{
		{"default", pabst.ModeSourceOnly, nil, "pabst+fcfs",
			"0de980ebf50d21ada4fde976bddc4665eb5c01479c9e8e3de8bc0389112af2f6"},
		{"overridden", pabst.ModeSourceOnly, []pabst.Option{pabst.WithPolicy("", "dpq")}, "pabst+dpq", dpqContent},
		{"spelled-as-mode", pabst.Mode{Source: "pabst", Target: "dpq"}, nil, "pabst+dpq", dpqContent},
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
			if got := fmt.Sprintf("%x", sha256.Sum256(ck.Bytes())); got != c.content {
				t.Errorf("checkpoint bytes hash %s, frozen %s", got, c.content)
			}
			if v := binary.LittleEndian.Uint32(ck.Bytes()[8:]); v != 12 { // the version word follows the 8-byte magic
				t.Errorf("checkpoint format version %d, frozen 12", v)
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

// fuzzMachines are the small machines FuzzRestore's seeds come from:
// short windows and few-KB caches keep an image near 20 KB, so the
// fuzzer spends its time in the walk rather than copying cache lines.
// One has every fault domain armed, the other the modeled NoC, and
// between them they attach every describable generator kind.
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

// FuzzRestore is the checkpoint trust boundary's fuzz target: Restore,
// metadata and every component's Ckpt walk, loading. The seeds are real
// checkpoints of the two fuzzMachines, each written on both kernels, and
// images whose metadata or weights Restore must refuse. The target
// re-seals a mutated image with a fresh CRC — so mutations reach the
// metadata and the walk instead of dying at the envelope — and restores
// it. Whatever the bytes say, Restore must return a system or a typed
// checkpoint error, must not panic, and must not allocate more than a
// small multiple of the image beyond a fresh build of the machine the
// image describes; a system it returns must then run 2 000 cycles without
// panicking, so a load check that lets through a machine that cannot run
// fails here rather than in a user's Run.
func FuzzRestore(f *testing.F) {
	var last []byte
	for _, m := range fuzzMachines(f) {
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
			sys.Close()
			f.Add(img.Bytes())
			last = img.Bytes()
		}
	}
	f.Add(reweigh(f, last, [2]uint64{1<<62 + 1, 1<<62 + 3})) // no stride vector fits 64 bits
	for _, c := range craftedImages(f, last) {
		f.Add(c.img)
	}
	f.Fuzz(func(t *testing.T, img []byte) {
		if len(img) < 8 {
			return
		}
		img = seal(img[: len(img)-8 : len(img)-8])
		var sys *pabst.System
		var err error
		restored := ownAlloc(func() { sys, err = pabst.Restore(bytes.NewReader(img)) })
		if err != nil && !errors.Is(err, pabst.ErrCkptCorrupt) && !errors.Is(err, pabst.ErrCkptVersion) &&
			!errors.Is(err, pabst.ErrCkptMismatch) && !errors.Is(err, pabst.ErrCkptUnsupported) {
			t.Fatalf("restore failed with an untyped error: %v", err)
		}
		if limit := uint64(8*len(img) + 1<<20); restored > limit {
			built := ownAlloc(func() { buildMeta(t, img) })
			if restored > built+limit {
				t.Fatalf("restoring a %d-byte image allocated %d bytes, building its machine %d (limit %d beyond it)", len(img), restored, built, limit)
			}
		}
		if err == nil {
			sys.Run(2_000)
		}
	})
}

// buildMeta builds the machine an image's metadata describes, as Restore
// does before it loads the payload, for the allocation gate's baseline.
func buildMeta(t *testing.T, img []byte) {
	c, err := ckpt.Decode(img)
	if err != nil {
		t.Fatal(err)
	}
	var meta struct {
		Config  pabst.SystemConfig
		Mode    string
		Classes []struct {
			Name   string
			Weight uint64
			L3Ways int `json:"l3_ways"`
		}
		Attach []struct {
			Tile, Class int
			Spec        workload.BuildSpec
		}
	}
	if err := json.Unmarshal(c.Header().Meta, &meta); err != nil {
		t.Fatal(err)
	}
	mode, err := pabst.ParseMode(meta.Mode)
	if err != nil {
		t.Fatal(err)
	}
	b := pabst.NewBuilder(meta.Config, mode)
	for _, c := range meta.Classes {
		b.AddClass(c.Name, c.Weight, c.L3Ways)
	}
	for _, a := range meta.Attach {
		gen, err := workload.FromBuildSpec(a.Spec)
		if err != nil {
			t.Fatal(err)
		}
		b.Attach(a.Tile, pabst.ClassID(a.Class), gen)
	}
	if _, err := b.Build(); err != nil {
		t.Fatal(err)
	}
}

// ownAlloc returns the bytes a second run of f allocates on its own
// goroutine; the first run, unmeasured, stocks the process's pools as a
// steady state has them. Every allocation of the second run is profiled,
// and those whose recorded stack passes through profiled count, so
// another goroutine's allocations in the same window do not. The profile
// keeps a stack's innermost 32 frames: an allocation deeper than that
// below profiled cannot be told apart, and counts as well.
func ownAlloc(f func()) uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection empties the pools
	f()
	before := profiledBytes()
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	profiled(f)
	runtime.MemProfileRate = 0
	runtime.GC() // publishes the window's allocations to the profile
	return uint64(profiledBytes() - before)
}

//go:noinline
func profiled(f func()) { f() }

// profiledBytes sums the published profile's allocations under profiled.
func profiledBytes() (n int64) {
	recs := make([]runtime.MemProfileRecord, 512)
	k, ok := runtime.MemProfile(recs, true)
	for ; !ok; k, ok = runtime.MemProfile(recs, true) {
		recs = make([]runtime.MemProfileRecord, k+512)
	}
	entry := reflect.ValueOf(profiled).Pointer()
	for _, r := range recs[:k] {
		stk := r.Stack()
		if len(stk) == len(r.Stack0) || slices.ContainsFunc(stk, func(pc uintptr) bool {
			fn := runtime.FuncForPC(pc - 1)
			return fn != nil && fn.Entry() == entry
		}) {
			n += r.AllocBytes
		}
	}
	return n
}
