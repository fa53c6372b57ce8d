package mem

import (
	"errors"
	"testing"
	"unsafe"

	"pabst/internal/ckpt"
)

// TestPacketListLengthBoundedByImage: a ~100-byte CRC-valid image whose
// packet list claims 2^24 entries fails with ErrCorrupt before anything
// is allocated for them (the list used to be pre-sized from the claim:
// 128 MB for this one). What the list holds is counted from its own
// capacity, so no other goroutine's allocation reaches the gate.
func TestPacketListLengthBoundedByImage(t *testing.T) {
	raw, err := ckpt.Encode(ckpt.Header{}, ckpt.WalkFunc(func(c *ckpt.Codec) {
		claim := uint64(1 << 24)
		c.U64(&claim)
		p := &Packet{Addr: 0x40}
		CkptPacket(c, &p) // one real packet behind the count
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 160 {
		t.Fatalf("image is %d bytes, the test wants a small one", len(raw))
	}
	c, err := ckpt.Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	c.Limits = ckpt.Limits{Tiles: 1, MCs: 1, Classes: 1}
	var ps []*Packet
	err = c.Load(ckpt.WalkFunc(func(c *ckpt.Codec) { CkptPackets(c, &ps) }))
	if !errors.Is(err, ckpt.ErrCorrupt) || len(ps) != 0 {
		t.Errorf("want ErrCorrupt and no packets, got %v and %d", err, len(ps))
	}
	// The list is all a count sizes: its slots, and a packet for each
	// slot that was filled.
	if held := cap(ps)*int(unsafe.Sizeof((*Packet)(nil))) + len(ps)*int(unsafe.Sizeof(Packet{})); held >= 1<<20 {
		t.Errorf("decoding a %d-byte image allocated %d bytes", len(raw), held)
	}
}

// TestPacketAddressWithinTheWidth: a restored packet's address reaches
// the caches, which hold line numbers of AddrBits-LineShift bits, so an
// address at or above 2^AddrBits (2^43) is corruption. The highest line
// below it loads.
func TestPacketAddressWithinTheWidth(t *testing.T) {
	for _, tc := range []struct {
		addr Addr
		want error
	}{
		{1<<AddrBits - LineSize, nil},
		{1 << AddrBits, ckpt.ErrCorrupt},
		{1 << 43, ckpt.ErrCorrupt}, // the width itself: a 37-bit cache line number
		{1<<63 | 0x40, ckpt.ErrCorrupt},
	} {
		raw, err := ckpt.Encode(ckpt.Header{}, ckpt.WalkFunc(func(c *ckpt.Codec) {
			p := &Packet{Addr: tc.addr}
			CkptPacket(c, &p)
		}))
		if err != nil {
			t.Fatal(err)
		}
		c, err := ckpt.Decode(raw)
		if err != nil {
			t.Fatal(err)
		}
		c.Limits = ckpt.Limits{Tiles: 1, MCs: 1, Classes: 1}
		var p *Packet
		err = c.Load(ckpt.WalkFunc(func(c *ckpt.Codec) { CkptPacket(c, &p) }))
		if !errors.Is(err, tc.want) {
			t.Errorf("address %#x: restore error %v, want %v", uint64(tc.addr), err, tc.want)
		}
		if err == nil && p.Addr != tc.addr {
			t.Errorf("address %#x restored as %#x", uint64(tc.addr), uint64(p.Addr))
		}
	}
}
