package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"pabst"
)

// TestFingerprintKeysOnGeneratorRecipe is the regression test for a
// checkpoint collision: the streams and wstreams benches share
// configuration, classes, tile placement and generator display names
// ("stream") and differ only in reading versus writing, so a
// fingerprint keyed on display names let one restore the other's
// warmed state. Keyed on each generator's build recipe, the machines
// have different fingerprints and RestoreFrom refuses either's image
// on the other.
func TestFingerprintKeysOnGeneratorRecipe(t *testing.T) {
	benches := []string{BenchStreams, BenchWStreams}
	ex := tinyExec()
	systems := make([]*pabst.System, len(benches))
	fps := make([][32]byte, len(benches))
	for i, bench := range benches {
		sc, err := ex.Scale("tiny")
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := RunSpec{Bench: bench, Scale: "tiny"}.buildFor(sc.Apply(pabst.Default32Config()), sc)
		if err != nil {
			t.Fatal(err)
		}
		if systems[i], err = warmed(context.Background(), b, sc.Warmup); err != nil {
			t.Fatal(err)
		}
		defer systems[i].Close()
		if fps[i], err = systems[i].Fingerprint(); err != nil {
			t.Fatal(err)
		}
	}
	if fps[0] == fps[1] {
		t.Fatalf("%s and %s share machine fingerprint %x", benches[0], benches[1], fps[0][:8])
	}
	for i, from := range systems {
		var img bytes.Buffer
		if err := from.Checkpoint(&img); err != nil {
			t.Fatal(err)
		}
		onto := benches[1-i]
		if err := systems[1-i].RestoreFrom(&img); !errors.Is(err, pabst.ErrCkptMismatch) {
			t.Errorf("restoring a %s image onto %s: %v, want ErrCkptMismatch", benches[i], onto, err)
		}
	}
}

// TestCheckpointAllocations gates the host memory of a checkpoint round
// trip on a saturated paper machine (32 tiles, 7:3 read streams) whose
// image is mostly valid cache lines. A save allocates its image once,
// sized from the machine's line counts: at most 1.5 image sizes in all.
// Building a machine and restoring an image onto it allocates what the
// build does, plus the copy of the image a caller reads and no second
// copy of it: at most 1.2 image sizes beyond the build.
//
// Each window is measured with encoding/json's encoder pool stocked and
// the collector off, so it counts what the save or restore asks for and
// not pool refills: the race detector drops a quarter of all sync.Pool
// puts, and without a stock a restore's fingerprint encodes would
// regrow their buffers in about half the runs.
func TestCheckpointAllocations(t *testing.T) {
	scale := Scale{Name: "sat", Warmup: 100_000, Epoch: 2000, Window: 2000}
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

	sys, err := warmed(context.Background(), build(), scale.Warmup)
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
	var img bytes.Buffer
	if err := sys.Checkpoint(&img); err != nil {
		t.Fatal(err)
	}
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
	b := build()
	restored := allocated(func() {
		if sys, err = b.Build(); err != nil {
			t.Fatal(err)
		}
		// The copy stands in for the read that brings an image into
		// memory; a Buffer is restored without another.
		if err = sys.RestoreFrom(bytes.NewBuffer(bytes.Clone(img.Bytes()))); err != nil {
			t.Fatal(err)
		}
	})
	sys.Close()
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
