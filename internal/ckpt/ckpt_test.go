package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// prims is one of every primitive, walked in a fixed order.
type prims struct {
	u64  uint64
	u8   uint8
	i64  int64
	n    int
	yes  bool
	no   bool
	arr  [3]uint64
	s    string
	enum uint8
	idx  int
	list []uint64
	none []uint64
	some []uint64
	raw  [4]byte
}

func (p *prims) Ckpt(c *Codec) {
	c.Section("prim")
	c.U64(&p.u64)
	c.U8(&p.u8)
	c.I64(&p.i64)
	c.Int(&p.n)
	c.Bool(&p.yes)
	c.Bool(&p.no)
	c.U64s(p.arr[:])
	c.String(&p.s)
	c.Enum(&p.enum, 4)
	c.Index(&p.idx, 10)
	Slice(c, &p.list, 8, (*Codec).U64)
	NilSlice(c, &p.none, 8, (*Codec).U64)
	NilSlice(c, &p.some, 8, (*Codec).U64)
	if c.Loading() {
		copy(p.raw[:], c.TakeRaw(len(p.raw)))
	} else {
		copy(c.AppendRaw(len(p.raw)), p.raw[:])
	}
}

func TestPrimitivesRoundTrip(t *testing.T) {
	h := Header{Cycle: 42, Meta: []byte(`{"k":1}`)}
	in := prims{u64: 1<<63 + 7, u8: 200, i64: -12345, n: -9, yes: true, arr: [3]uint64{1, 2, 3},
		s: "hello", enum: 3, idx: 9, list: []uint64{4, 5}, some: []uint64{}, raw: [4]byte{9, 0, 255, 1}}
	raw, err := Encode(h, &in)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	c, err := Decode(raw)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got := c.Header(); got.Cycle != 42 || string(got.Meta) != `{"k":1}` {
		t.Fatalf("header round-trip mismatch: %+v", got)
	}
	out := prims{no: true, none: []uint64{1}}
	if err := c.Load(&out); err != nil {
		t.Fatalf("load: %v", err)
	}
	if out.u64 != in.u64 || out.u8 != in.u8 || out.i64 != in.i64 || out.n != in.n ||
		!out.yes || out.no || out.arr != in.arr || out.s != in.s || out.enum != in.enum || out.idx != in.idx || out.raw != in.raw {
		t.Errorf("scalars: got %+v, want %+v", out, in)
	}
	if len(out.list) != 2 || out.list[1] != 5 {
		t.Errorf("Slice = %v", out.list)
	}
	if out.none != nil {
		t.Errorf("nil NilSlice = %v", out.none)
	}
	if out.some == nil || len(out.some) != 0 {
		t.Errorf("empty NilSlice = %v", out.some)
	}
	again, err := Encode(h, &out)
	if err != nil || !bytes.Equal(again, raw) {
		t.Errorf("re-encoding the decoded value changed the image (err %v)", err)
	}
}

type sample struct {
	v uint64
	s string
}

func (s *sample) Ckpt(c *Codec) {
	c.Section("a")
	c.U64(&s.v)
	c.Section("b")
	c.String(&s.s)
}

func writeSample(t *testing.T) []byte {
	t.Helper()
	raw, err := Encode(Header{Cycle: 7}, &sample{99, "payload"})
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return raw
}

// reseal recomputes the CRC trailer after a test mutated the body.
func reseal(raw []byte) []byte {
	body := raw[:len(raw)-trailerLen]
	return binary.LittleEndian.AppendUint64(body, checksum(body))
}

func TestVersionMismatch(t *testing.T) {
	raw := writeSample(t)
	raw[8]++ // version is the uint32 right after the 8-byte magic
	if _, err := Decode(raw); !errors.Is(err, ErrVersion) {
		t.Fatalf("want ErrVersion, got %v", err)
	}
}

func TestBadMagic(t *testing.T) {
	raw := writeSample(t)
	raw[0] ^= 0xFF
	if _, err := Decode(raw); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
}

// TestTruncated cuts the image everywhere: the envelope check must
// refuse every prefix before any walker is touched.
func TestTruncated(t *testing.T) {
	raw := writeSample(t)
	for cut := 0; cut < len(raw); cut++ {
		_, err := Decode(raw[:cut])
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut %d: want ErrCorrupt, got %v", cut, err)
		}
	}
}

func TestBitFlipCaughtByCRC(t *testing.T) {
	raw := writeSample(t)
	// Flip one payload byte (past magic+version+header, before trailer).
	raw[len(raw)-12] ^= 0x01
	if _, err := Decode(raw); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt from CRC, got %v", err)
	}
}

func TestSectionMismatch(t *testing.T) {
	c, err := Decode(writeSample(t))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	c.Section("wrong")
	if err := c.Err(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt on wrong section, got %v", err)
	}
}

// TestStickyWriterError: an error latched mid-walk while saving
// surfaces from Encode and no image is returned.
func TestStickyWriterError(t *testing.T) {
	raw, err := Encode(Header{}, WalkFunc(func(c *Codec) {
		c.Fail(ErrUnsupported)
		v, s := uint64(1), "x"
		c.U64(&v)
		c.String(&s)
	}))
	if !errors.Is(err, ErrUnsupported) || raw != nil {
		t.Fatalf("want latched ErrUnsupported and no image, got %v, %d bytes", err, len(raw))
	}
}

// TestLoadErrorsNameTheirCause: every failure after the walk began —
// latched by a check, a short payload, or payload left over — is the
// sentinel of its cause, and a failed codec yields zeros.
func TestLoadErrorsNameTheirCause(t *testing.T) {
	for name, w := range map[string]Walker{
		"leftover": WalkFunc(func(c *Codec) { c.Section("a") }),
		"overrun": WalkFunc(func(c *Codec) {
			var s sample
			s.Ckpt(c)
			v := uint64(7)
			c.U64(&v)
			if v != 0 {
				t.Errorf("read past the payload yielded %d, want 0", v)
			}
		}),
		"mismatch": WalkFunc(func(c *Codec) {
			c.Section("a")
			if c.Same(98, "sample value") {
				t.Error("Same(98) accepted a stored 99")
			}
		}),
	} {
		c, err := Decode(writeSample(t))
		if err != nil {
			t.Fatal(err)
		}
		want := ErrCorrupt
		if name == "mismatch" {
			want = ErrMismatch
		}
		if err := c.Load(w); !errors.Is(err, want) {
			t.Errorf("%s: want %v, got %v", name, want, err)
		}
	}
}

// TestRangeChecksRejectOnLoad: Enum, Index and Bool accept what they
// are handed when saving and refuse an out-of-range value when loading.
func TestRangeChecksRejectOnLoad(t *testing.T) {
	for name, walk := range map[string][2]WalkFunc{
		"enum": {
			func(c *Codec) { v := uint8(9); c.U8(&v) },
			func(c *Codec) { var v uint8; c.Enum(&v, 9) },
		},
		"index": {
			func(c *Codec) { v := -1; c.Int(&v) },
			func(c *Codec) { var v int; c.Index(&v, 4) },
		},
		"bool": {
			func(c *Codec) { v := uint8(2); c.U8(&v) },
			func(c *Codec) { var v bool; c.Bool(&v) },
		},
	} {
		raw, err := Encode(Header{}, walk[0])
		if err != nil {
			t.Fatal(err)
		}
		c, err := Decode(raw)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Load(walk[1]); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: want ErrCorrupt, got %v", name, err)
		}
	}
}

// TestLengthBoundedByImage pins the one rule for decoded lengths: a
// count may not exceed the bytes left divided by the element's minimum
// size. A ~100-byte image claiming 2^24 eight-byte elements (or the nil
// marker's neighbour, 2^64-2) fails with ErrCorrupt before anything is
// allocated for it: the slice the count would size holds at most 1 MiB.
func TestLengthBoundedByImage(t *testing.T) {
	for _, claim := range []uint64{1 << 24, ^uint64(0) - 1, 4} {
		raw, err := Encode(Header{}, WalkFunc(func(c *Codec) {
			c.U64(&claim)
			c.U64s(make([]uint64, 3)) // 24 bytes of payload behind the count
		}))
		if err != nil {
			t.Fatal(err)
		}
		for name, load := range map[string]func(*Codec, *[]uint64){
			"Slice":    func(c *Codec, s *[]uint64) { Slice(c, s, 8, (*Codec).U64) },
			"NilSlice": func(c *Codec, s *[]uint64) { NilSlice(c, s, 8, (*Codec).U64) },
		} {
			c, err := Decode(raw)
			if err != nil {
				t.Fatal(err)
			}
			var got []uint64
			load(c, &got)
			if !errors.Is(c.Err(), ErrCorrupt) || len(got) != 0 {
				t.Errorf("%s claiming %d: err %v, %d elements", name, claim, c.Err(), len(got))
			}
			if held := cap(got) * 8; held > 1<<20 {
				t.Errorf("%s claiming %d allocated %d bytes", name, claim, held)
			}
		}
	}
}
