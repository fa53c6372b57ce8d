package exp

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc64"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"pabst"
	"pabst/internal/ckpt"
)

// ckptVerifyFile integrity-checks a stored checkpoint image.
func ckptVerifyFile(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	_, err = ckpt.Decode(raw)
	return err
}

// warmBuilder describes the small 3:1 two-stream machine used by every
// warm-start test; each call returns fresh generator instances.
func warmBuilder(scale Scale) func() (*pabst.Builder, error) {
	return func() (*pabst.Builder, error) {
		cfg := scale.Apply(pabst.Scaled8Config())
		b := pabst.NewBuilder(cfg, pabst.ModePABST, scale.Options()...)
		hi := b.AddClass("hi", 3, cfg.L3Ways/2)
		lo := b.AddClass("lo", 1, cfg.L3Ways/2)
		attachStreams(b, hi, 0, 4, false)
		attachStreams(b, lo, 4, 8, true)
		return b, nil
	}
}

// measure runs the measured phase and renders the observable outcome.
func measure(scale Scale, sys *pabst.System) string {
	sys.Run(scale.Measure)
	snap := sys.Snapshot()
	return render(snap.Window) + render(snap.GovernorMs())
}

// TestWarmedSystemStoreRoundTrip pins the store contract: a cold run
// populates the directory, a second run restores from it, and both
// produce byte-identical measurements.
func TestWarmedSystemStoreRoundTrip(t *testing.T) {
	scale := tinyScale()
	scale.Ckpt = t.TempDir()
	build := warmBuilder(scale)

	// Cold reference without any store.
	plain := scale
	plain.Ckpt = ""
	b, err := build()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := WarmedSystem(context.Background(), plain, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := measure(scale, ref)
	ref.Close()

	// First store run warms cold and saves.
	b, err = build()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := WarmedSystem(context.Background(), scale, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := measure(scale, sys)
	sys.Close()
	if got != want {
		t.Fatalf("cold store run diverged from plain run:\n%s\n%s", got, want)
	}
	files, err := filepath.Glob(filepath.Join(scale.Ckpt, "*.ckpt"))
	if err != nil || len(files) != 1 {
		t.Fatalf("store holds %v (err %v), want one checkpoint", files, err)
	}

	// Second run must hit the store and still match byte-for-byte.
	b, err = build()
	if err != nil {
		t.Fatal(err)
	}
	sys, err = WarmedSystem(context.Background(), scale, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	got = measure(scale, sys)
	sys.Close()
	if got != want {
		t.Fatalf("restored run diverged from cold run:\n%s\n%s", got, want)
	}
}

// TestWarmedSystemResumeMiss pins that Resume turns a store miss into an
// error instead of silently warming cold.
func TestWarmedSystemResumeMiss(t *testing.T) {
	scale := tinyScale()
	scale.Ckpt = t.TempDir()
	scale.Resume = true
	b, err := warmBuilder(scale)()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := WarmedSystem(context.Background(), scale, b, nil); err == nil {
		t.Fatal("resume with an empty store succeeded")
	} else if !strings.Contains(err.Error(), "no checkpoint") {
		t.Fatalf("resume miss error = %v", err)
	}
}

// TestWarmedSystemCorruptStore pins the self-healing store contract: a
// damaged checkpoint — or an intact one in a previous format — is
// quarantined (renamed aside, counted), the run falls back to a cold
// warmup with results identical to a store-free run, and the re-saved
// checkpoint serves the next hit.
func TestWarmedSystemCorruptStore(t *testing.T) {
	older := func(v uint32) func([]byte) []byte { // version word back to v, CRC re-sealed
		return func(raw []byte) []byte {
			raw = raw[:len(raw)-8]
			binary.LittleEndian.PutUint32(raw[8:], v)
			return binary.LittleEndian.AppendUint64(raw, crc64.Checksum(raw, crc64.MakeTable(crc64.ECMA)))
		}
	}
	for name, damage := range map[string]func([]byte) []byte{
		"bit-flip":  func(raw []byte) []byte { raw[len(raw)/2]++; return raw },
		"version-3": older(3),
		"version-4": older(4),
		"version-5": older(5),
		"version-6": older(6),
		"version-7": older(7),
		"version-8": older(8),
		"version-9": older(9),
	} {
		t.Run(name, func(t *testing.T) { corruptStoreHeals(t, damage) })
	}
}

func corruptStoreHeals(t *testing.T, damage func([]byte) []byte) {
	scale := tinyScale()
	scale.Ckpt = t.TempDir()
	build := warmBuilder(scale)

	// Store-free reference.
	plain := scale
	plain.Ckpt = ""
	b, err := build()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := WarmedSystem(context.Background(), plain, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := measure(scale, ref)
	ref.Close()

	// Populate the store, then damage the file.
	b, err = build()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := WarmedSystem(context.Background(), scale, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	sys.Close()
	files, _ := filepath.Glob(filepath.Join(scale.Ckpt, "*.ckpt"))
	if len(files) != 1 {
		t.Fatalf("store holds %v", files)
	}
	raw, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(files[0], damage(raw), 0o644); err != nil {
		t.Fatal(err)
	}

	// The damaged file must be quarantined, not restored and not fatal.
	before := StoreEvents.Quarantines.Load()
	b, err = build()
	if err != nil {
		t.Fatal(err)
	}
	sys, err = WarmedSystem(context.Background(), scale, b, nil)
	if err != nil {
		t.Fatalf("corrupt store was not healed: %v", err)
	}
	got := measure(scale, sys)
	sys.Close()
	if got != want {
		t.Fatalf("cold fallback diverged from plain run:\n%s\n%s", got, want)
	}
	if n := StoreEvents.Quarantines.Load(); n != before+1 {
		t.Fatalf("quarantine counter %d, want %d", n, before+1)
	}
	if q, _ := filepath.Glob(filepath.Join(scale.Ckpt, "*"+QuarantineSuffix)); len(q) != 1 {
		t.Fatalf("quarantined files %v, want exactly one", q)
	}
	// The fallback warmup re-saved a good checkpoint.
	if files, _ = filepath.Glob(filepath.Join(scale.Ckpt, "*.ckpt")); len(files) != 1 {
		t.Fatalf("store not repopulated: %v", files)
	}
	if err := ckptVerifyFile(files[0]); err != nil {
		t.Fatalf("re-saved checkpoint does not verify: %v", err)
	}
}

// TestWarmedSystemResumeCorrupt pins that Resume treats a quarantined
// file as a miss and errors instead of silently running cold.
func TestWarmedSystemResumeCorrupt(t *testing.T) {
	scale := tinyScale()
	scale.Ckpt = t.TempDir()
	build := warmBuilder(scale)
	b, err := build()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := WarmedSystem(context.Background(), scale, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	sys.Close()
	files, _ := filepath.Glob(filepath.Join(scale.Ckpt, "*.ckpt"))
	if len(files) != 1 {
		t.Fatalf("store holds %v", files)
	}
	if err := os.Truncate(files[0], 16); err != nil {
		t.Fatal(err)
	}
	scale.Resume = true
	b, err = build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := WarmedSystem(context.Background(), scale, b, nil); err == nil {
		t.Fatal("resume restored a truncated checkpoint")
	} else if !errors.Is(err, pabst.ErrCkptCorrupt) {
		t.Fatalf("resume-corrupt error = %v", err)
	}
	if q, _ := filepath.Glob(filepath.Join(scale.Ckpt, "*"+QuarantineSuffix)); len(q) != 1 {
		t.Fatalf("quarantined files %v, want exactly one", q)
	}
}

// TestWarmStoreKeysOnGeneratorRecipe is the regression test for a store
// collision: the streams and wstreams benches share configuration,
// classes, tile placement and generator display names ("stream") and
// differ only in reading versus writing, so a fingerprint keyed on
// display names handed one the other's warmed state. Keyed on each
// generator's build recipe, the machines have different fingerprints
// and a shared store gives each its own cold result.
func TestWarmStoreKeysOnGeneratorRecipe(t *testing.T) {
	benches := []string{BenchStreams, BenchWStreams}
	// Long enough for dirty lines to reach memory, so writing shows in
	// the result: the first writebacks leave a write stream's L3
	// partition after about 200k cycles.
	sc := tinyScale()
	sc.Warmup = 300_000
	cold := Exec{Scales: map[string]Scale{"tiny": sc}}
	shared := cold
	shared.Ckpt = t.TempDir()

	fps := map[[32]byte]string{}
	want := map[string]string{}
	for _, bench := range benches {
		rs := RunSpec{Bench: bench, Scale: "tiny"}
		sc, err := cold.Scale(rs.Scale)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := rs.buildFor(sc.Apply(pabst.Default32Config()), sc)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		fp, err := sys.Fingerprint()
		sys.Close()
		if err != nil {
			t.Fatal(err)
		}
		if other, dup := fps[fp]; dup {
			t.Fatalf("%s and %s share machine fingerprint %x", other, bench, fp[:8])
		}
		fps[fp] = bench

		r, err := rs.Run(context.Background(), cold, RunIO{})
		if err != nil {
			t.Fatal(err)
		}
		want[bench] = r.Fingerprint
	}
	if want[BenchStreams] == want[BenchWStreams] {
		t.Fatal("read and write streams produced the same result; the test cannot tell a collision")
	}

	// Pass 0 populates the shared store, pass 1 restores from it.
	for pass := 0; pass < 2; pass++ {
		for _, bench := range benches {
			r, err := RunSpec{Bench: bench, Scale: "tiny"}.Run(context.Background(), shared, RunIO{})
			if err != nil {
				t.Fatal(err)
			}
			if r.Fingerprint != want[bench] {
				t.Errorf("pass %d: %s through the shared store = %s, cold = %s", pass, bench, r.Fingerprint, want[bench])
			}
		}
	}
}

// TestCheckpointAllocations gates the host memory of a warm-store round
// trip on a saturated paper machine (32 tiles, 7:3 read streams) whose
// image is mostly valid cache lines. A save allocates its image once,
// sized from the machine's line counts: at most 1.5 image sizes in all.
// A store hit allocates what building the machine does, plus the file
// it reads and no second copy of it: at most 1.2 image sizes beyond the
// build.
//
// Each window is measured with encoding/json's encoder pool stocked and
// the collector off, so it counts what the save or restore asks for and
// not pool refills: the race detector drops a quarter of all sync.Pool
// puts, and without a stock a restore's two fingerprint encodes would
// regrow their buffers in about half the runs.
func TestCheckpointAllocations(t *testing.T) {
	scale := Scale{Name: "sat", Warmup: 100_000, Epoch: 2000, Window: 2000, Ckpt: t.TempDir()}
	build := func() *pabst.Builder {
		cfg := scale.Apply(pabst.Default32Config())
		b := pabst.NewBuilder(cfg, pabst.ModePABST, scale.Options()...)
		hi := b.AddClass("hi", 7, cfg.L3Ways/2)
		lo := b.AddClass("lo", 3, cfg.L3Ways/2)
		attachStreams(b, hi, 0, 16, false)
		attachStreams(b, lo, 16, 32, false)
		return b
	}
	allocated := func(f func()) uint64 {
		if _, err := json.Marshal(nestedJSON(8)); err != nil {
			t.Fatal(err)
		}
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}

	sys, err := WarmedSystem(context.Background(), scale, build(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var image int
	saved := allocated(func() {
		w := &countingWriter{}
		if err := sys.Checkpoint(w); err != nil {
			t.Fatal(err)
		}
		image = w.n
	})
	sys.Close()
	if limit := uint64(1.5 * float64(image)); saved > limit {
		t.Errorf("saving a %d-byte image allocated %d bytes (limit %d)", image, saved, limit)
	}

	var built uint64
	for range 2 { // the first build also warms process-wide tables
		b := build()
		built = allocated(func() {
			if sys, err = b.Build(); err != nil {
				t.Fatal(err)
			}
		})
		sys.Close()
	}
	hits := StoreEvents.Hits.Load()
	b := build()
	restored := allocated(func() {
		if sys, err = WarmedSystem(context.Background(), scale, b, nil); err != nil {
			t.Fatal(err)
		}
	})
	sys.Close()
	if StoreEvents.Hits.Load() != hits+1 {
		t.Fatal("the second WarmedSystem call did not restore from the store")
	}
	if limit := built + uint64(1.2*float64(image)); restored > limit {
		t.Errorf("restoring a %d-byte image allocated %d bytes; the build alone %d (limit %d)", image, restored, built, limit)
	}
}

// nestedJSON marshals through that many nested json.Marshal calls, so
// as many encoder states are in use at once and return to encoding/json's
// pool together, each grown to hold 64 KB: more than any machine
// description a checkpoint fingerprint encodes.
type nestedJSON int

func (n nestedJSON) MarshalJSON() ([]byte, error) {
	if n == 0 {
		return json.Marshal(strings.Repeat("x", 64<<10))
	}
	return json.Marshal(n - 1)
}

// countingWriter counts the bytes written to it and keeps none.
type countingWriter struct{ n int }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}
