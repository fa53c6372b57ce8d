package mem

import "fmt"

// LineSize is the cache-line and DRAM-burst size in bytes. The entire
// simulator moves data in whole lines, matching the paper's 64 B lines.
const LineSize = 64

// LineShift is log2(LineSize).
const LineShift = 6

// AddrBits is the machine's physical address width. The largest address
// any generator here emits is below 2^43 (tile 1024's window of a 32×32
// mesh); the caches store a line number in 37 bits, so an address wider
// than this never reaches them (Phys drops the excess where an address
// enters the hierarchy, and a restored packet carrying one is corrupt).
const AddrBits = 43

// Addr is a physical byte address.
type Addr uint64

// Phys returns the address the machine decodes: a with every bit at or
// above AddrBits dropped.
func (a Addr) Phys() Addr { return a & (1<<AddrBits - 1) }

// Line returns the line-aligned address.
func (a Addr) Line() Addr { return a &^ (LineSize - 1) }

// LineID returns the line number (address / LineSize).
func (a Addr) LineID() uint64 { return uint64(a) >> LineShift }

// ClassID identifies a QoS class (the paper's QoSID). Class 0 is valid and
// carries no special meaning.
type ClassID uint8

// MaxClasses bounds the number of simultaneously active QoS classes. The
// paper's experiments use at most four.
const MaxClasses = 16

// Kind distinguishes the roles a packet can play as it moves through the
// system.
type Kind uint8

const (
	// Read is a demand fill request on its way from an L2 to the L3 or a
	// memory controller, or the data response on its way back.
	Read Kind = iota
	// Writeback carries an evicted dirty line to the memory controller.
	// Writebacks have no response.
	Writeback
)

func (k Kind) String() string {
	switch k {
	case Read:
		return "read"
	case Writeback:
		return "writeback"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Packet is a single memory transaction. One packet is allocated per L2
// miss and is reused for the response; writebacks allocate their own
// packets. Fields are grouped by the pipeline stage that owns them.
type Packet struct {
	Addr  Addr
	Kind  Kind
	Class ClassID

	// SrcTile is the tile whose L2 issued the demand request; responses
	// are routed back to it. For L3-generated writebacks it is the slice's
	// tile.
	SrcTile int

	// Resp marks the packet as a response on its way back to the source
	// tile (set by the L3 hit path or the memory controller).
	Resp bool

	// Response flags, set by the L3 slice and consumed by the source
	// governor's pacer (Section III-B3 of the paper).
	L3Hit bool // request was serviced by the shared cache
	WBGen bool // the L3 fill triggered a dirty writeback to memory

	// DirtyFill marks a demand fill that will be dirtied immediately on
	// arrival at the L2 (a store miss / read-for-ownership).
	DirtyFill bool

	// Target-side bookkeeping.
	MC       int    // memory controller index serving Addr
	Deadline uint64 // virtual deadline assigned by the priority arbiter
	Enq      uint64 // cycle the packet entered the MC front-end (FCFS order)

	// Timestamps for latency accounting.
	Issue uint64 // cycle the L2 miss entered the SoC network
}

func (p *Packet) String() string {
	return fmt.Sprintf("%s{addr=%#x class=%d src=%d}", p.Kind, uint64(p.Addr), p.Class, p.SrcTile)
}
