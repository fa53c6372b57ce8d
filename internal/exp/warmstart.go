package exp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"pabst"
	"pabst/internal/ckpt"
)

// StoreStats counts warm-start checkpoint-store outcomes process-wide.
// The serve control plane exports them as metrics; tests read them to
// pin the quarantine behavior. Counters only ever increase.
type StoreStats struct {
	Hits        atomic.Uint64 // restores served from the store
	Misses      atomic.Uint64 // absent files (cold warmup follows)
	Saves       atomic.Uint64 // post-warmup checkpoints written
	Quarantines atomic.Uint64 // corrupt/mismatched files set aside
}

// StoreEvents is the process-wide store counter set.
var StoreEvents StoreStats

// QuarantineSuffix is appended to a corrupt checkpoint's name when the
// store sets it aside. Quarantined files are never read again; they are
// kept for postmortem instead of deleted.
const QuarantineSuffix = ".quarantined"

// CkptPath names the checkpoint file for a machine fingerprint and a
// warmup length inside a store directory. The fingerprint keys the
// structure (config, mode, classes, attachments), the warmup length the
// trajectory — together they guarantee a hit is bit-identical to
// re-running the warmup.
func CkptPath(dir string, fp [32]byte, warmup uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%x-w%d.ckpt", fp[:16], warmup))
}

// warmup brings a freshly built system through its warmup phase. With a
// beat hook the cycles run in chunks so a supervisor sees liveness
// during the multi-million-cycle warmups; chunked RunContext calls
// followed by one ResetStats are exactly WarmupContext, so the warmed
// state is bit-identical either way.
func warmup(ctx context.Context, sys *pabst.System, cycles uint64, beat func(done, total uint64)) error {
	if beat == nil {
		_, err := sys.WarmupContext(ctx, cycles)
		return err
	}
	chunk := cycles / 32
	if chunk == 0 {
		chunk = 1
	}
	var done uint64
	for done < cycles {
		step := cycles - done
		if step > chunk {
			step = chunk
		}
		ran, err := sys.RunContext(ctx, step)
		done += ran
		beat(done, cycles)
		if err != nil {
			return err
		}
	}
	sys.ResetStats()
	return nil
}

// WarmedSystem builds the system a builder describes and brings it to
// the post-warmup state under ctx, calling beat (when non-nil) as warmup
// cycles advance so a supervisor can tell a long warmup from a wedged
// worker. It goes through the scale's checkpoint store when
// Scale.Ckpt names a directory: a stored checkpoint matching
// the machine's fingerprint and the warmup length is restored instead of
// re-simulating the warmup, and a cold warmup saves its result for the
// next run (temp-file + rename, so a crash never leaves a torn file).
//
// The store is self-healing: a restore checks the stored image once
// (magic, version, CRC trailer, then the machine fingerprint) BEFORE any
// state is overlaid, and a corrupt, truncated, wrong-version or
// wrong-machine file is quarantined — renamed aside with
// QuarantineSuffix and counted in StoreEvents.Quarantines — after which
// the run simply warms up cold and re-saves. Only Scale.Resume turns
// these into errors: resume asserts saved work exists, and a quarantined
// file is a miss. A restore that fails after the overlay began
// (ckpt.ErrPartial) is a hard error either way.
//
// Restoring is bit-identical to warming up: the measured run that
// follows produces byte-equal results either way. Cancellation during a
// cold warmup returns ctx.Err() with nothing saved.
func WarmedSystem(ctx context.Context, scale Scale, b *pabst.Builder, beat func(done, total uint64)) (*pabst.System, error) {
	sys, err := b.Build()
	if err != nil {
		return nil, err
	}
	if scale.Ckpt == "" {
		if err := warmup(ctx, sys, scale.Warmup, beat); err != nil {
			sys.Close()
			return nil, err
		}
		return sys, nil
	}
	fp, err := sys.Fingerprint()
	if err != nil {
		sys.Close()
		return nil, err
	}
	path := CkptPath(scale.Ckpt, fp, scale.Warmup)
	raw, readErr := os.ReadFile(path)
	if readErr != nil {
		StoreEvents.Misses.Add(1)
	} else if rerr := sys.RestoreFrom(bytes.NewBuffer(raw)); rerr == nil { // a Buffer is restored without a copy
		StoreEvents.Hits.Add(1)
		return sys, nil
	} else if errors.Is(rerr, ckpt.ErrPartial) {
		// A CRC-valid image that still fails mid-walk left the system
		// partially overlaid; nothing sound to fall back onto.
		sys.Close()
		return nil, fmt.Errorf("exp: restore %s: %w (delete the file to re-warm)", path, rerr)
	} else {
		// The envelope check (magic, version, CRC) and the fingerprint
		// check both precede any overlay, so the machine is untouched:
		// set the damaged file or impostor aside and warm up cold.
		quarantine(path)
		if scale.Resume {
			sys.Close()
			return nil, fmt.Errorf("exp: resume: checkpoint at %s quarantined: %w", path, rerr)
		}
	}
	if scale.Resume {
		sys.Close()
		return nil, fmt.Errorf("exp: resume: no checkpoint at %s", path)
	}
	if err := warmup(ctx, sys, scale.Warmup, beat); err != nil {
		sys.Close()
		return nil, err
	}
	if err := saveCkpt(sys, path); err != nil {
		// A machine with closure-based generators has no serializable
		// description; it simply runs cold every time. Anything else
		// (disk full, permissions) is a real error.
		if errors.Is(err, pabst.ErrCkptUnsupported) {
			return sys, nil
		}
		sys.Close()
		return nil, err
	}
	StoreEvents.Saves.Add(1)
	return sys, nil
}

// quarantine sets a damaged store file aside so no later run trips over
// it; if even the rename fails the file is removed outright. Either way
// the event is counted.
func quarantine(path string) {
	if err := os.Rename(path, path+QuarantineSuffix); err != nil {
		os.Remove(path)
	}
	StoreEvents.Quarantines.Add(1)
}

// saveCkpt writes a system checkpoint atomically.
func saveCkpt(sys *pabst.System, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".ckpt-*")
	if err != nil {
		return err
	}
	if err := sys.Checkpoint(tmp); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}
