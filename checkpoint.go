package pabst

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"

	"pabst/internal/ckpt"
	"pabst/internal/mem"
	"pabst/internal/workload"
)

// Typed checkpoint errors. Callers branch with errors.Is.
var (
	// ErrCkptVersion marks a checkpoint written by an incompatible
	// format version.
	ErrCkptVersion = ckpt.ErrVersion
	// ErrCkptCorrupt marks a truncated, bit-flipped, or otherwise
	// unparseable checkpoint.
	ErrCkptCorrupt = ckpt.ErrCorrupt
	// ErrCkptMismatch marks a checkpoint whose payload describes a
	// different machine than its metadata builds.
	ErrCkptMismatch = ckpt.ErrMismatch
	// ErrCkptUnsupported marks a system that cannot be checkpointed (or
	// a checkpoint that cannot be restored) because a component — e.g. a
	// closure-based generator — has no serializable description.
	ErrCkptUnsupported = ckpt.ErrUnsupported
)

// decode reads a whole checkpoint image and checks its envelope; no
// system state has been touched when it fails. An image already in a
// bytes.Buffer is consumed in place rather than copied: the codec only
// reads it, and only until the restore returns.
func decode(r io.Reader) (*ckpt.Codec, error) {
	if b, ok := r.(*bytes.Buffer); ok {
		return ckpt.Decode(b.Next(b.Len()))
	}
	var img bytes.Buffer
	if sized, ok := r.(interface{ Len() int }); ok {
		img.Grow(sized.Len() + bytes.MinRead) // one allocation for an in-memory image
	}
	if _, err := img.ReadFrom(r); err != nil {
		return nil, err
	}
	return ckpt.Decode(img.Bytes())
}

// ckptMeta rides in the checkpoint header and is the one description of
// the machine Restore builds: the configuration (Kernel cleared: the
// kernel never changes simulated state), the mode, the classes with their
// creation parameters, and each attachment's generator build recipe. An
// attachment whose generator has no recipe (closures, replayed traces)
// leaves Spec.Kind empty, and Restore refuses the image.
type ckptMeta struct {
	Config  SystemConfig `json:"config"`
	Mode    string       `json:"mode"`
	Classes []metaClass  `json:"classes"`
	Attach  []metaAttach `json:"attach"`
}

type metaClass struct {
	Name   string `json:"name"`
	Weight uint64 `json:"weight"`
	L3Ways int    `json:"l3_ways"`
}

type metaAttach struct {
	Tile  int                `json:"tile"`
	Class int                `json:"class"`
	Spec  workload.BuildSpec `json:"spec"`
}

// Checkpoint serializes the complete simulated machine to w: a
// self-describing header (format version, current cycle, rebuild
// metadata) followed by every component's state in canonical order and a
// CRC trailer, assembled in memory and written with one Write. A restored
// system is bit-identical to the saved one: running both for the same
// number of cycles produces byte-equal metrics, whichever kernel wrote it.
//
// A generator that can neither state its recipe nor walk its state
// fails with ErrCkptUnsupported; one with a walk but no recipe (a
// closure-filtered stream) is saved, and Restore refuses the image.
func (s *System) Checkpoint(w io.Writer) error {
	meta := ckptMeta{Config: s.inner.Config(), Mode: s.inner.Pair().String()}
	meta.Config.Kernel = ""
	for _, c := range s.reg.Classes() {
		meta.Classes = append(meta.Classes, metaClass{Name: c.Name, Weight: c.Weight, L3Ways: c.L3Ways})
	}
	for _, a := range s.inner.Attachments() {
		ma := metaAttach{Tile: a.Tile, Class: int(a.Class)}
		if d, ok := a.Gen.(workload.Describable); ok {
			ma.Spec = d.BuildSpec()
		}
		meta.Attach = append(meta.Attach, ma)
	}
	rawMeta, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	img, err := ckpt.Encode(ckpt.Header{Cycle: s.Now(), Meta: rawMeta}, s.inner)
	if err != nil {
		return err
	}
	_, err = w.Write(img)
	return err
}

// Restore rebuilds a system entirely from a checkpoint written by
// System.Checkpoint: the header metadata supplies the configuration,
// mode, classes, and workload recipes; the payload supplies the state.
// It is the one way from an image to a machine, and it returns a machine
// or a typed error (errors.Is with an ErrCkpt*), whatever the bytes say:
// a failed load drops the machine it built. An image of a generator
// without a build recipe (a closure, a replayed trace) is
// ErrCkptUnsupported.
func Restore(r io.Reader) (*System, error) {
	cr, err := decode(r)
	if err != nil {
		return nil, err
	}
	var meta ckptMeta
	if err := json.Unmarshal(cr.Header().Meta, &meta); err != nil {
		return nil, fmt.Errorf("%w: checkpoint metadata: %v", ErrCkptCorrupt, err)
	}
	mode, err := ParseMode(meta.Mode)
	if err != nil {
		return nil, fmt.Errorf("%w: checkpoint mode: %v", ErrCkptCorrupt, err)
	}
	if err := meta.Config.Validate(); err != nil {
		return nil, fmt.Errorf("%w: checkpoint configuration: %v", ErrCkptCorrupt, err)
	}
	if err := fitsImage(&meta.Config, len(meta.Attach), cr.Left()); err != nil {
		return nil, err
	}
	b := NewBuilder(meta.Config, mode)
	for _, c := range meta.Classes {
		b.AddClass(c.Name, c.Weight, c.L3Ways)
	}
	for _, a := range meta.Attach {
		if a.Spec.Kind == "" {
			return nil, fmt.Errorf("%w: tile %d generator has no build recipe", ErrCkptUnsupported, a.Tile)
		}
		gen, err := workload.FromBuildSpec(a.Spec)
		if err != nil {
			return nil, fmt.Errorf("%w: tile %d: %v", ErrCkptCorrupt, a.Tile, err)
		}
		b.Attach(a.Tile, ClassID(a.Class), gen)
	}
	sys, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("%w: checkpoint machine: %v", ErrCkptCorrupt, err)
	}
	if err := cr.Load(sys.inner); err != nil {
		sys.Close()
		return nil, err
	}
	return sys, nil
}

// maxMSHRs is the largest MSHR file Restore builds. The payload holds
// only the outstanding misses, so the file needs an architectural bound:
// an L2 tracks tens of misses (16 on the paper's tile), and every miss
// scans the file linearly (soc/mshr.go).
const maxMSHRs = 1 << 8

// fitsImage refuses, before anything is built for it, metadata asking for
// more machine than its payload can describe. The walk stores at least one
// byte for every L3 line of every slice, every L1 and L2 line, window slot
// and per-channel miss FIFO of every attached tile, and every bank of
// every controller (Codec.Len's rule). The MSHR file is not walked, so
// maxMSHRs bounds it and, with the tile count, the queues Build pre-sizes
// for misses; dram.Config.Validate bounds the DRAM queues.
func fitsImage(cfg *SystemConfig, attached, payload int) error {
	left := payload
	charge := func(counts ...int) bool { // the product of counts fits in left
		n := 1
		for _, k := range counts {
			if n > 0 && k > left/n {
				return false
			}
			n *= k
		}
		left -= n
		return true
	}
	lines := func(bytes int) int { return bytes / mem.LineSize }
	if cfg.MaxMSHRs > maxMSHRs {
		return fmt.Errorf("%w: %d MSHRs a tile, more than %d", ErrCkptCorrupt, cfg.MaxMSHRs, maxMSHRs)
	}
	if !(charge(cfg.MeshCols, cfg.MeshRows, lines(cfg.L3SliceBytes)) &&
		charge(attached, lines(cfg.L1Bytes)) && charge(attached, lines(cfg.L2Bytes)) &&
		charge(attached, cfg.Core.WindowOps) && charge(attached, cfg.NumMCs) &&
		charge(cfg.NumMCs, cfg.DRAM.Banks)) {
		return fmt.Errorf("%w: a %d-byte payload cannot describe the %dx%d machine its metadata asks for",
			ErrCkptCorrupt, payload, cfg.MeshCols, cfg.MeshRows)
	}
	return nil
}

// RunContext advances the simulation by up to cycles, checking ctx for
// cancellation at epoch boundaries. It returns how many cycles actually
// ran, with ctx.Err() when it stopped early. The clock advances exactly
// as Run would; cancellation only decides where it stops.
func (s *System) RunContext(ctx context.Context, cycles uint64) (uint64, error) {
	return s.inner.RunContext(ctx, cycles)
}
