// Package ckpt implements the versioned binary checkpoint format for the
// simulated machine.
//
// A checkpoint is a single self-describing image:
//
//	magic   "PABSTCKP"                 8 bytes
//	version uint32                     format version (Version)
//	header  cycle       uint64         kernel cycle at save time
//	        meta        []byte         JSON build description (config + attachments)
//	payload section-tagged component state, canonical walk order
//	trailer crc64 (ECMA) over every preceding byte
//
// The payload is a flat sequence of little-endian primitives produced by
// components walking their state in a canonical, documented order (see
// DESIGN.md, "Checkpoint & state contract"). Section tags are short
// length-prefixed strings written between component groups; they carry no
// data but turn a walk-order bug into an immediate typed error instead of
// silently misassigned state.
//
// One Codec serves both directions over one in-memory image: encoding
// appends to it, decoding slices it, and every primitive takes a pointer
// it reads from or writes through. A component therefore states its
// field order exactly once, in its Ckpt method, and the two directions
// cannot drift apart.
//
// Versioning rule: any change to the walk order, to a component's field
// set, or to a primitive encoding bumps Version. There is no in-place
// migration — a version mismatch is a typed ErrVersion and the caller
// re-runs from scratch.
package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"slices"
)

// Version is the current checkpoint format version. Bump it on any
// walk-order or encoding change; restore refuses other versions.
//
// History: v1 was the initial format; v2 added the per-tile and
// per-class-baseline latency histograms to the soc walk; v3 sharded the
// fault injector's NoC stream into per-tile/per-MC cursors and made the
// NoC fabric's inject-fail counter per-router; v4 dropped the DRAM
// controller's per-bank queue slot, and the header records the resolved
// mechanism pair once (the configuration no longer carries an override);
// v5 gave the SAT-feedback governor one walk whatever its lane count
// (lane count, lanes, demand, degraded-signal registers), and the demand
// register stays zero unless the Section V-B split reads it; v6 dropped
// the kernel's skipped-cycle counter, so no scheduler counter is saved
// and both kernels write the same bytes for the same machine; v7 stores
// a cache's lines as one byte per line (0 invalid, else 1+recency rank)
// followed by the packed words of the valid lines, in place of per-line
// fields and 64-bit LRU timestamps, and drops the cache's access clock;
// v8 has v7's walk, but its images come from the one MSHR model (a miss
// refused for want of an MSHR allocates no frame), so a v7 image warmed
// under the old optimistic allocation is refused rather than resumed
// into results no cold run prints; v9 has v8's walk too, but its images
// come from a front door whose round-robin pointer moves only when it
// admits a read, so a v8 image warmed under the pointer that also moved on
// refusals is refused the same way; v10 drops the DRAM controller's
// refresh deadline and refresh counter, the trace's per-controller
// refresh counter and the tile's prefetch counter, and every stored MSHR
// has at least one waiter (the L2 prefetcher and DRAM refresh are gone);
// v11 drops the fault injector's shared NoC stream cursor and the
// per-sender NoC drop/delay tallies with their folded totals: the
// per-tile and per-MC streams count into the injector's counters
// directly; v12 drops the header's machine fingerprint: the metadata is
// the one description of the machine, and a restore builds from it.
const Version uint32 = 12

var magic = [8]byte{'P', 'A', 'B', 'S', 'T', 'C', 'K', 'P'}

// checksum is the CRC-64 (ECMA) of a whole image body, computed in one
// pass. The table is fetched per call, not held in a package variable:
// hash/crc64 builds its 32 KB of slicing tables on first use, and a
// process that never checkpoints should not carry them.
func checksum(body []byte) uint64 {
	return crc64.Checksum(body, crc64.MakeTable(crc64.ECMA))
}

var (
	// ErrVersion reports a checkpoint written by a different format
	// version than this build understands.
	ErrVersion = errors.New("ckpt: unsupported checkpoint version")

	// ErrCorrupt reports a damaged image: bad magic, truncation, a CRC
	// mismatch, a section tag out of order, or a field outside the range
	// the restoring machine can hold.
	ErrCorrupt = errors.New("ckpt: corrupt checkpoint")

	// ErrMismatch reports a structural disagreement between the payload
	// and the system it loads into (a component of another shape).
	ErrMismatch = errors.New("ckpt: checkpoint does not match this system")

	// ErrUnsupported reports a component that cannot be checkpointed
	// (e.g. a workload generator built from a closure the format cannot
	// describe).
	ErrUnsupported = errors.New("ckpt: component does not support checkpointing")
)

// Walker is implemented by every component with checkpointable state.
// Ckpt visits the component's mutable fields in their stored order; the
// codec's direction decides whether each visit writes the field to the
// image or overwrites it from the image. Structural fields (wiring,
// geometry, callbacks) are not visited: they are rebuilt from the config
// before a decode overlays state onto the freshly built component.
type Walker interface {
	Ckpt(c *Codec)
}

// Sizer is implemented by a Walker that can bound its image before the
// walk; Encode then allocates the image once, at that size plus the
// header, instead of growing it.
type Sizer interface {
	CkptSize() int
}

// WalkFunc adapts a function to a Walker.
type WalkFunc func(c *Codec)

// Ckpt calls f(c).
func (f WalkFunc) Ckpt(c *Codec) { f(c) }

// Header is the self-describing prefix of every checkpoint.
type Header struct {
	// Cycle is the kernel cycle at save time.
	Cycle uint64
	// Meta is a JSON build description sufficient to reconstruct the
	// system (config plus class/tile/workload attachments).
	Meta []byte
}

// Limits are the index bounds of the machine a decode overlays onto,
// handed to the codec by whoever knows the geometry (the soc walk) so
// components below it can range-check the indices they load: the machine
// indexes with them later, and a CRC proves an image intact, not
// well-meant. A zero bound rejects every index of its kind.
type Limits struct {
	Tiles, MCs, Classes int
}

const (
	nilLen        = ^uint64(0) // length marking a nil slice
	sectionMark   = 0xA5       // section sentinel, unlikely in accidental misalignment
	maxSectionLen = 64         // section tags are short identifiers
	trailerLen    = 8
)

// Codec walks one checkpoint image in one direction. Errors are sticky:
// the first failure latches, and from then on a decoding codec yields
// zero values and zero lengths, so walks run unconditionally and the
// error is collected once at the end.
type Codec struct {
	// Limits bound the index-valued fields components load; see Limits.
	Limits Limits
	// OnLoad, if set, sees each value a loading walk passes to Loaded:
	// the hook of a walker that checks how the state it loaded relates to
	// what the rest of the walk loads.
	OnLoad func(v any)

	buf     []byte // encoding: the image so far; decoding: header and payload, trailer cut off
	off     int    // decoding: read cursor into buf
	loading bool
	err     error
	header  Header
}

// Encode walks w into a fresh image under header h and seals it with the
// CRC trailer.
func Encode(h Header, w Walker) ([]byte, error) {
	size := 4096
	if s, ok := w.(Sizer); ok {
		size = s.CkptSize()
	}
	c := &Codec{buf: make([]byte, 0, 12+16+len(h.Meta)+size+trailerLen)}
	c.buf = append(c.buf, magic[:]...)
	c.buf = binary.LittleEndian.AppendUint32(c.buf, Version)
	c.U64(&h.Cycle)
	n := len(h.Meta)
	if h.Meta == nil {
		n = -1
	}
	c.NilLen(&n, 1)
	c.buf = append(c.buf, h.Meta...)
	w.Ckpt(c)
	if c.err != nil {
		return nil, c.err
	}
	return binary.LittleEndian.AppendUint64(c.buf, checksum(c.buf)), nil
}

// Decode checks a complete image's envelope — magic, version, header
// bounds, and the CRC trailer over every byte before it — and returns a
// codec positioned at the payload. It touches no component state: an
// error here (ErrCorrupt, ErrVersion) means nothing was restored. A nil
// error guarantees the bytes are exactly what Encode produced, not that
// they describe a machine: the metadata and the walk's load checks are
// the restore's to judge.
func Decode(raw []byte) (*Codec, error) {
	if len(raw) < len(magic) || [8]byte(raw[:8]) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if len(raw) < 12 {
		return nil, fmt.Errorf("%w: truncated version", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint32(raw[8:]); v != Version {
		return nil, fmt.Errorf("%w: file version %d, this build reads %d", ErrVersion, v, Version)
	}
	if len(raw) < 12+trailerLen {
		return nil, fmt.Errorf("%w: truncated header", ErrCorrupt)
	}
	body, trailer := raw[:len(raw)-trailerLen], raw[len(raw)-trailerLen:]
	c := &Codec{buf: body, off: 12, loading: true}
	c.U64(&c.header.Cycle)
	var n int
	c.NilLen(&n, 1)
	if n >= 0 {
		c.header.Meta = make([]byte, n)
		c.take(c.header.Meta)
	}
	if c.err != nil {
		return nil, fmt.Errorf("%w: truncated header", ErrCorrupt)
	}
	if binary.LittleEndian.Uint64(trailer) != checksum(body) {
		return nil, fmt.Errorf("%w: CRC mismatch", ErrCorrupt)
	}
	return c, nil
}

// Load walks w over the payload, overwriting its state from the image,
// and requires the walk to consume the payload exactly. After a failure
// w is partly overwritten and must be discarded.
func (c *Codec) Load(w Walker) error {
	w.Ckpt(c)
	if c.err == nil && c.off != len(c.buf) {
		c.err = fmt.Errorf("%w: %d payload bytes left over", ErrCorrupt, len(c.buf)-c.off)
	}
	return c.err
}

// Header returns the checkpoint's self-describing prefix.
func (c *Codec) Header() Header { return c.header }

// Loading reports the direction: true when visits overwrite fields from
// the image. Components branch on it only where the live representation
// is not the stored one (convert before the walk when saving, rebuild
// after it when loading) and for load-side checks.
func (c *Codec) Loading() bool { return c.loading }

// Fail latches an error (a load-side check that failed, or a member
// discovered mid-walk that the format cannot describe).
func (c *Codec) Fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// Err returns the latched error, if any.
func (c *Codec) Err() error { return c.err }

// Left returns the image bytes not yet walked: before a Load, the whole
// payload, which bounds every count the walk may load (see Len).
func (c *Codec) Left() int { return len(c.buf) - c.off }

// Loaded hands a value the walk has just loaded to OnLoad, if set.
func (c *Codec) Loaded(v any) {
	if c.loading && c.OnLoad != nil {
		c.OnLoad(v)
	}
}

// take fills p from the image, or zeroes it once the codec has failed.
func (c *Codec) take(p []byte) {
	if c.err != nil || len(p) > c.Left() {
		c.short()
		clear(p)
		return
	}
	c.off += copy(p, c.buf[c.off:])
}

// AppendRaw is the saving half of a bulk walk that lays out its own
// bytes: it appends n zero bytes to the image and returns them for the
// caller to fill before its next visit.
func (c *Codec) AppendRaw(n int) []byte {
	c.buf = slices.Grow(c.buf, n)[:len(c.buf)+n]
	b := c.buf[len(c.buf)-n:]
	clear(b)
	return b
}

// TakeRaw is the loading half: it returns the next n bytes of the image,
// aliased, not copied. Fewer than n left (or an earlier failure) latches
// the truncation error and returns nil, so a hostile count costs no
// allocation.
func (c *Codec) TakeRaw(n int) []byte {
	if c.err != nil || n < 0 || n > c.Left() {
		c.short()
		return nil
	}
	c.off += n
	return c.buf[c.off-n : c.off : c.off]
}

// U64 visits a little-endian uint64.
func (c *Codec) U64(p *uint64) {
	if !c.loading {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, *p)
		return
	}
	if c.err != nil || c.Left() < 8 {
		c.short()
		*p = 0
		return
	}
	*p = binary.LittleEndian.Uint64(c.buf[c.off:])
	c.off += 8
}

// U8 visits one byte.
func (c *Codec) U8(p *uint8) {
	if !c.loading {
		c.buf = append(c.buf, *p)
		return
	}
	if c.err != nil || c.Left() < 1 {
		c.short()
		*p = 0
		return
	}
	*p = c.buf[c.off]
	c.off++
}

// short latches the truncation error unless an earlier one is latched
// (a failed decode zero-fills through here once per remaining field).
func (c *Codec) short() {
	if c.err == nil {
		c.err = fmt.Errorf("%w: truncated payload", ErrCorrupt)
	}
}

// I64 visits a little-endian int64 (two's complement).
func (c *Codec) I64(p *int64) {
	v := uint64(*p)
	c.U64(&v)
	if c.loading {
		*p = int64(v)
	}
}

// Int visits an int, stored as an int64.
func (c *Codec) Int(p *int) {
	v := uint64(*p)
	c.U64(&v)
	if c.loading {
		*p = int(int64(v))
	}
}

// Bool visits a bool, stored as one byte. Any byte besides 0 and 1 is
// corruption.
func (c *Codec) Bool(p *bool) {
	var v uint8
	if *p {
		v = 1
	}
	c.U8(&v)
	if c.loading {
		if v > 1 {
			c.Fail(fmt.Errorf("%w: invalid bool encoding", ErrCorrupt))
		}
		*p = v == 1
	}
}

// U64s visits every element of a fixed-length array in order (no length
// is stored: the length is structural).
func (c *Codec) U64s(a []uint64) {
	for i := range a {
		c.U64(&a[i])
	}
}

// String visits a length-prefixed string.
func (c *Codec) String(p *string) {
	n := len(*p)
	c.Len(&n, 1)
	if !c.loading {
		c.buf = append(c.buf, *p...)
		return
	}
	b := make([]byte, n)
	c.take(b)
	*p = string(b)
}

// Enum visits a one-byte enumeration with n values. Loading a value
// outside [0, n) is corruption and yields 0.
func (c *Codec) Enum(p *uint8, n int) {
	c.U8(p)
	if c.loading && int(*p) >= n {
		c.Fail(fmt.Errorf("%w: enum value %d outside [0,%d)", ErrCorrupt, *p, n))
		*p = 0
	}
}

// Index visits an int that indexes a container of n elements. Loading a
// value outside [0, n) is corruption and yields 0.
func (c *Codec) Index(p *int, n int) {
	c.Int(p)
	if c.loading && (*p < 0 || *p >= n) {
		c.Fail(fmt.Errorf("%w: index %d outside [0,%d)", ErrCorrupt, *p, n))
		*p = 0
	}
}

// Len visits a container length. The one rule for a decoded length: it
// may not exceed the bytes left in the image divided by elemMin, the
// fewest bytes one element encodes to — so a corrupt count fails before
// anything is allocated for it, and every loop a count drives is bounded
// by the image. A failed codec yields 0.
func (c *Codec) Len(n *int, elemMin int) {
	v := uint64(*n)
	c.U64(&v)
	if c.loading {
		if v > uint64(c.Left()/elemMin) {
			c.Fail(fmt.Errorf("%w: length %d exceeds the %d bytes left", ErrCorrupt, v, c.Left()))
			v = 0
		}
		*n = int(v)
	}
}

// NilLen is Len for containers that distinguish nil from empty: -1
// stands for nil and is stored as ^uint64(0).
func (c *Codec) NilLen(n *int, elemMin int) {
	if c.loading && c.err == nil && c.Left() >= 8 && binary.LittleEndian.Uint64(c.buf[c.off:]) == nilLen {
		c.off += 8
		*n = -1
		return
	}
	c.Len(n, elemMin)
}

// Same visits a structural count: saving writes n; loading requires the
// stored value to equal n and fails with ErrMismatch (naming what) if it
// does not. It reports whether the walk may continue.
func (c *Codec) Same(n int, what string) bool {
	got := n
	c.Int(&got)
	if c.err == nil && got != n {
		c.Fail(fmt.Errorf("%w: %s: this system has %d, checkpoint has %d", ErrMismatch, what, n, got))
	}
	return c.err == nil
}

// Section visits a walk-order guard tag. Loading, the image must carry
// the identical tag at this position or the restore fails with
// ErrCorrupt.
func (c *Codec) Section(name string) {
	if !c.loading {
		c.buf = append(c.buf, sectionMark)
		c.String(&name)
		return
	}
	if c.err != nil {
		return
	}
	var mark uint8
	c.U8(&mark)
	var n uint64
	c.U64(&n)
	if c.err != nil || mark != sectionMark || n > maxSectionLen || n > uint64(c.Left()) {
		c.Fail(fmt.Errorf("%w: expected section %q, found unaligned data", ErrCorrupt, name))
		return
	}
	got := string(c.buf[c.off : c.off+int(n)])
	c.off += int(n)
	if got != name {
		c.Fail(fmt.Errorf("%w: expected section %q, found %q", ErrCorrupt, name, got))
	}
}

// Slice visits a count-prefixed slice, elem visiting each element in
// order; elemMin is the fewest bytes one element encodes to (see Len).
// Loading replaces the contents, reusing the slice's capacity. A nil
// slice is stored as an empty one; NilSlice keeps the difference.
func Slice[T any](c *Codec, s *[]T, elemMin int, elem func(*Codec, *T)) {
	n := len(*s)
	c.Len(&n, elemMin)
	if c.loading {
		*s = append((*s)[:0], make([]T, n)...)
	}
	for i := range *s {
		elem(c, &(*s)[i])
	}
}

// NilSlice is Slice for slices whose nil and empty states differ.
func NilSlice[T any](c *Codec, s *[]T, elemMin int, elem func(*Codec, *T)) {
	n := len(*s)
	if *s == nil {
		n = -1
	}
	c.NilLen(&n, elemMin)
	if c.loading {
		*s = nil
		if n >= 0 {
			*s = make([]T, n)
		}
	}
	for i := range *s {
		elem(c, &(*s)[i])
	}
}
