package pabst

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"

	"pabst/internal/ckpt"
	"pabst/internal/config"
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
	// ErrCkptMismatch marks a structurally valid checkpoint that
	// describes a different machine than the one restoring it.
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

// fpDoc is the canonical structural description hashed into a
// checkpoint's fingerprint: the configuration with Kernel zeroed (the
// kernel never changes simulated state, so it must not change the
// fingerprint), the regulation mode, and the class and attachment
// layout. Weights are excluded — they are runtime state (SetWeight),
// carried in the payload instead.
type fpDoc struct {
	Config  config.System `json:"config"`
	Mode    string        `json:"mode"`
	Classes []fpClass     `json:"classes"`
	Tiles   []fpTile      `json:"tiles"`
}

type fpClass struct {
	Name   string `json:"name"`
	L3Ways int    `json:"l3_ways"`
}

// fpTile keys one attachment. A generator that can describe its own
// construction is keyed by that recipe — two generators that share a
// display name but differ in kind or parameters (a read stream and a
// write stream both named "stream") are different machines. Closure
// generators have only their name.
type fpTile struct {
	Tile  int                 `json:"tile"`
	Class int                 `json:"class"`
	Gen   string              `json:"gen,omitempty"`
	Spec  *workload.BuildSpec `json:"spec,omitempty"`
}

func normalizeConfig(cfg config.System) config.System {
	cfg.Kernel = ""
	return cfg
}

// Fingerprint returns the sha256 of the system's structural description:
// configuration (minus Kernel, which never changes an outcome), mode,
// classes, and attachments. Two systems restore each other's
// checkpoints iff their fingerprints match.
func (s *System) Fingerprint() ([32]byte, error) {
	doc := fpDoc{Config: normalizeConfig(s.inner.Config()), Mode: s.inner.Pair().String()}
	for _, c := range s.inner.Registry().Classes() {
		doc.Classes = append(doc.Classes, fpClass{Name: c.Name, L3Ways: c.L3Ways})
	}
	for _, a := range s.inner.Attachments() {
		ft := fpTile{Tile: a.Tile, Class: int(a.Class)}
		if d, ok := a.Gen.(workload.Describable); ok {
			spec := d.BuildSpec()
			ft.Spec = &spec
		} else {
			ft.Gen = a.Gen.Name()
		}
		doc.Tiles = append(doc.Tiles, ft)
	}
	raw, err := json.Marshal(doc)
	if err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(raw), nil
}

// ckptMeta rides in the checkpoint header and carries everything
// pabst.Restore needs to rebuild the machine without caller help:
// the (normalized) configuration, the mode, the classes with their
// creation parameters, and each attachment's generator build recipe.
// An attachment whose generator has no recipe (closures, replayed
// traces) leaves Spec.Kind empty; such checkpoints restore
// only through System.RestoreFrom, onto a system whose builder
// reconstructed the generators itself.
type ckptMeta struct {
	Config  config.System `json:"config"`
	Mode    string        `json:"mode"`
	Classes []metaClass   `json:"classes"`
	Attach  []metaAttach  `json:"attach"`
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
// self-describing header (format version, structural fingerprint,
// current cycle, rebuild metadata) followed by every component's state
// in canonical order and a CRC trailer, assembled in memory and written
// with one Write. A restored system is
// bit-identical to the saved one: running both for the same number of
// cycles produces byte-equal metrics, on either kernel.
//
// The system must contain only checkpointable generators; a closure-
// based generator fails with ErrCkptUnsupported.
func (s *System) Checkpoint(w io.Writer) error {
	fp, err := s.Fingerprint()
	if err != nil {
		return err
	}
	meta := ckptMeta{Config: normalizeConfig(s.inner.Config()), Mode: s.inner.Pair().String()}
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
	img, err := ckpt.Encode(ckpt.Header{Fingerprint: fp, Cycle: s.Now(), Meta: rawMeta}, s.inner)
	if err != nil {
		return err
	}
	_, err = w.Write(img)
	return err
}

// Restore rebuilds a system entirely from a checkpoint written by
// System.Checkpoint: the header metadata supplies the configuration,
// mode, classes, and workload recipes; the payload supplies the state.
// Options apply after the metadata (WithKernel("cycle") restores onto
// the reference loop; outputs are bit-identical either way). An option
// that makes another machine, such as WithPolicy naming a different
// pair, fails with ErrCkptMismatch.
//
// Checkpoints containing generators without build recipes (closures,
// trace replayers) fail with ErrCkptUnsupported; restore
// those with System.RestoreFrom onto a system built to be the same
// machine.
func Restore(r io.Reader, opts ...Option) (*System, error) {
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
	b := NewBuilder(meta.Config, mode)
	for _, c := range meta.Classes {
		b.AddClass(c.Name, c.Weight, c.L3Ways)
	}
	if b.err != nil {
		return nil, fmt.Errorf("%w: checkpoint classes: %v", ErrCkptCorrupt, b.err)
	}
	for _, a := range meta.Attach {
		if a.Spec.Kind == "" {
			return nil, fmt.Errorf("%w: tile %d generator has no build recipe; use System.RestoreFrom", ErrCkptUnsupported, a.Tile)
		}
		gen, err := workload.FromBuildSpec(a.Spec)
		if err != nil {
			return nil, err
		}
		b.Attach(a.Tile, ClassID(a.Class), gen)
	}
	for _, o := range opts {
		o(b)
	}
	sys, err := b.Build()
	if err != nil {
		return nil, err
	}
	if err := sys.load(cr); err != nil {
		sys.Close()
		return nil, err
	}
	return sys, nil
}

// RestoreFrom overlays a checkpoint onto this system in place. The
// checkpoint must have been written by a structurally identical system,
// which is verified against the header fingerprint before any state is
// touched; a disagreement fails with ErrCkptMismatch. The system may
// already have run — every stateful component is overlaid wholesale.
// Generators that cannot describe their own construction (closures,
// trace replayers) restore only this way: the caller's builder
// reconstructs them, the checkpoint overlays their cursors. An error
// from the envelope or fingerprint check leaves the system untouched; a
// failure after the overlay began (an intact image carrying a field this
// machine cannot hold) leaves it partially overlaid and unusable. An
// image passed as a *bytes.Buffer is read in place, without a copy.
func (s *System) RestoreFrom(r io.Reader) error {
	cr, err := decode(r)
	if err != nil {
		return err
	}
	return s.load(cr)
}

func (s *System) load(cr *ckpt.Codec) error {
	fp, err := s.Fingerprint()
	if err != nil {
		return err
	}
	if h := cr.Header(); fp != h.Fingerprint {
		return fmt.Errorf("%w: checkpoint fingerprint %x…, this system is %x…",
			ErrCkptMismatch, h.Fingerprint[:8], fp[:8])
	}
	return cr.Load(s.inner)
}

// RunContext advances the simulation by up to cycles, checking ctx for
// cancellation at epoch boundaries. It returns how many cycles actually
// ran, with ctx.Err() when it stopped early. The clock advances exactly
// as Run would; cancellation only decides where it stops.
func (s *System) RunContext(ctx context.Context, cycles uint64) (uint64, error) {
	return s.inner.RunContext(ctx, cycles)
}

// WarmupContext runs up to cycles under ctx and resets measurement
// state only if the warmup completed; a canceled warmup leaves the
// counters inspectable.
func (s *System) WarmupContext(ctx context.Context, cycles uint64) (uint64, error) {
	return s.inner.WarmupContext(ctx, cycles)
}
