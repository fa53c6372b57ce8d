package config

import (
	"errors"
	"fmt"

	"pabst/internal/cache"
	"pabst/internal/cpu"
	"pabst/internal/dram"
	"pabst/internal/fault"
	"pabst/internal/mem"
	"pabst/internal/noc"
	"pabst/internal/pabst"
	"pabst/internal/qos"
)

// System describes one simulated machine. All latencies are in cycles of
// the 2 GHz CPU clock.
type System struct {
	Name string

	// Tiles.
	MeshCols int
	MeshRows int
	Core     cpu.Config
	MaxMSHRs int // outstanding L2 misses per tile

	// Private L1 data cache per tile (the L1I is folded into the core's
	// fetch abstraction — the model executes ops, not instruction
	// streams).
	L1Bytes  int
	L1Ways   int
	L1HitLat int

	// Private L2 per tile.
	L2Bytes  int
	L2Ways   int
	L2HitLat int

	// Shared L3: one slice per tile.
	L3SliceBytes int
	L3Ways       int
	L3HitLat     int // slice array access latency

	// Interconnect. With ModelNoC false (the paper's methodology) the
	// mesh contributes hop latency only; with it true, messages traverse
	// a contention-modeled router network with the NoCNet parameters.
	NoC      noc.Config
	ModelNoC bool
	NoCNet   noc.NetParams

	// Memory.
	NumMCs int
	DRAM   dram.Config

	// PABST mechanism parameters.
	PABST pabst.Params

	// Faults optionally injects deterministic faults into the SAT
	// broadcast, the DRAM controllers, and the NoC (see internal/fault).
	// Nil (the default) injects nothing and adds no overhead. An active
	// plan also arms the governors' degradation machinery (watchdog,
	// fallback, resync; see pabst.WatchdogEpochs), which is how they
	// survive what the plan breaks. The modeled NoC takes no NoC half:
	// its fabric has no hook that applies one.
	Faults *fault.Plan `json:",omitempty"`

	// WBCharge selects which class pays for shared-cache writebacks
	// (Section V-C); WBFixedClass names the payer under ChargeFixed.
	WBCharge     qos.WBCharge
	WBFixedClass mem.ClassID

	// Measurement.
	BWWindow uint64 // bandwidth series sampling window, cycles
	Seed     uint64

	// Kernel is the differential-oracle hook, not a speed option: it
	// never changes a simulated outcome. Empty (or KernelEvent) runs the
	// event-driven kernel, the only production path. KernelCycle runs
	// the same kernel as the reference loop (sim.Kernel.Reference) —
	// every component visited every cycle in the same order, several
	// times slower at every machine size — which tests and the benchmark
	// compare fingerprints against (DESIGN.md, "Event-driven kernel").
	Kernel string `json:",omitempty"`
}

// Kernel values.
const (
	// KernelEvent names the default event-driven kernel explicitly.
	KernelEvent = "event"
	// KernelCycle selects the reference loop: the kernel with skipping
	// switched off.
	KernelCycle = "cycle"
)

// NumTiles returns the tile (= core = L3 slice) count.
func (s *System) NumTiles() int { return s.MeshCols * s.MeshRows }

// Default32 returns the paper's 32-core 8×4 tiled SoC with four DDR4
// channels (Table III class parameters).
func Default32() System {
	s := System{
		Name:     "pabst-32core",
		MeshCols: 8,
		MeshRows: 4,
		Core:     cpu.Config{WindowOps: 48, IssueWidth: 2},
		MaxMSHRs: 16,

		L1Bytes:  32 * 1024,
		L1Ways:   8,
		L1HitLat: 4,

		L2Bytes:  256 * 1024,
		L2Ways:   8,
		L2HitLat: 12,

		L3SliceBytes: 512 * 1024,
		L3Ways:       16,
		L3HitLat:     22,

		NoC: noc.Config{
			Cols: 8, Rows: 4, NumMCs: 4,
			RouterDelay: 1, LinkDelay: 1, BaseDelay: 4,
		},
		NoCNet: noc.DefaultNetParams(),

		NumMCs: 4,
		DRAM: dram.Config{
			Timing:      dram.DDR4(),
			Policy:      dram.ClosedPage,
			Banks:       16,
			RowLines:    128,
			AddrShift:   2, // 4-way channel interleave consumes 2 bits
			FrontReadQ:  32,
			FrontWriteQ: 32,
		},

		PABST:    pabst.DefaultParams(),
		BWWindow: 10000,
		Seed:     1,
	}
	return s
}

// Scaled8 returns the 8-core system for the memcached experiment: every
// shared component scaled down 4× relative to Default32 (cores, L3
// capacity, memory channels).
func Scaled8() System {
	s := Default32()
	s.Name = "pabst-8core"
	s.MeshCols, s.MeshRows = 4, 2
	s.NoC.Cols, s.NoC.Rows, s.NoC.NumMCs = 4, 2, 1
	s.NumMCs = 1
	s.DRAM.AddrShift = 0
	return s
}

// MeshScaled returns a big-machine variant of the paper's tile: a
// cols×rows mesh with the same per-tile cache hierarchy, memory channels
// scaled with the tile count (one DDR4 channel per 8 tiles, capped at 16
// — edge-attached, as in large tiled parts), and hierarchical SAT gossip
// (fanout 4) so the heartbeat does not assume a single-hop broadcast at
// mesh scale. cols and rows must be positive; cols*rows/8 (capped) must
// be a power of two so the channel interleave stays a bit slice.
func MeshScaled(cols, rows int) System {
	s := Default32()
	tiles := cols * rows
	s.Name = fmt.Sprintf("pabst-%dcore", tiles)
	s.MeshCols, s.MeshRows = cols, rows
	mcs := tiles / 8
	if mcs < 1 {
		mcs = 1
	}
	if mcs > 16 {
		mcs = 16
	}
	s.NumMCs = mcs
	s.NoC.Cols, s.NoC.Rows, s.NoC.NumMCs = cols, rows, mcs
	shift := uint(0)
	for 1<<shift < mcs {
		shift++
	}
	s.DRAM.AddrShift = shift
	s.PABST.GossipFanout = 4
	return s
}

// ScaleDRAM returns a copy with DRAM timings slowed by factor (the
// Figure 11 static-allocation baseline runs an isolated workload at DDR/4
// frequency).
func (s System) ScaleDRAM(factor int) System {
	s.DRAM.Timing = s.DRAM.Timing.Scale(factor)
	return s
}

// ErrInvalid is wrapped by every validation rejection, so callers can
// distinguish a bad configuration (errors.Is(err, config.ErrInvalid))
// from I/O or parse failures and exit cleanly instead of panicking.
var ErrInvalid = errors.New("invalid configuration")

// Validate reports configuration errors across all subsystems. Every
// rejection wraps ErrInvalid and names the offending field.
func (s *System) Validate() error {
	if s.MeshCols <= 0 || s.MeshRows <= 0 {
		return fmt.Errorf("config: MeshCols/MeshRows: bad mesh %dx%d: %w", s.MeshCols, s.MeshRows, ErrInvalid)
	}
	if s.NoC.Cols != s.MeshCols || s.NoC.Rows != s.MeshRows {
		return fmt.Errorf("config: NoC.Cols/NoC.Rows: grid %dx%d does not match mesh %dx%d: %w",
			s.NoC.Cols, s.NoC.Rows, s.MeshCols, s.MeshRows, ErrInvalid)
	}
	if s.NoC.NumMCs != s.NumMCs {
		return fmt.Errorf("config: NoC.NumMCs: NoC has %d MCs, system has %d: %w", s.NoC.NumMCs, s.NumMCs, ErrInvalid)
	}
	if err := s.Core.Validate(); err != nil {
		return fmt.Errorf("config: Core: %w: %w", err, ErrInvalid)
	}
	if s.MaxMSHRs <= 0 {
		return fmt.Errorf("config: MaxMSHRs: must be positive, got %d: %w", s.MaxMSHRs, ErrInvalid)
	}
	for _, c := range []struct {
		name, waysField  string
		bytes, ways, lat int
	}{
		{"L1", "L1Ways", s.L1Bytes, s.L1Ways, s.L1HitLat},
		{"L2", "L2Ways", s.L2Bytes, s.L2Ways, s.L2HitLat},
		{"L3Slice", "L3Ways", s.L3SliceBytes, s.L3Ways, s.L3HitLat},
	} {
		// The cache model ranks a set's ways in a 5-bit field of each line.
		if c.ways > cache.MaxWays {
			return fmt.Errorf("config: %s: %d ways, the cache model holds at most %d: %w",
				c.waysField, c.ways, cache.MaxWays, ErrInvalid)
		}
		// The cache model indexes sets with a mask: a power-of-two
		// number of sets, each a whole number of ways×64 B lines.
		sets := 0
		if c.ways > 0 && c.ways <= c.bytes/mem.LineSize {
			sets = c.bytes / (c.ways * mem.LineSize)
		}
		if c.lat <= 0 || sets == 0 || sets&(sets-1) != 0 || sets*c.ways*mem.LineSize != c.bytes {
			return fmt.Errorf("config: %[1]sBytes/%[1]sWays/%[1]sHitLat: bad %[1]s geometry %d/%d/%d (want a power-of-two number of sets): %w",
				c.name, c.bytes, c.ways, c.lat, ErrInvalid)
		}
	}
	if s.L1Bytes >= s.L2Bytes {
		return fmt.Errorf("config: L1Bytes: L1 (%d) must be smaller than L2 (%d): %w", s.L1Bytes, s.L2Bytes, ErrInvalid)
	}
	if s.NumMCs <= 0 {
		return fmt.Errorf("config: NumMCs: need at least one MC, got %d: %w", s.NumMCs, ErrInvalid)
	}
	if s.ModelNoC {
		if err := s.NoCNet.Validate(); err != nil {
			return fmt.Errorf("config: NoCNet: %w: %w", err, ErrInvalid)
		}
	}
	if err := s.DRAM.Validate(); err != nil {
		return fmt.Errorf("config: DRAM: %w: %w", err, ErrInvalid)
	}
	if err := s.PABST.Validate(); err != nil {
		return fmt.Errorf("config: PABST: %w: %w", err, ErrInvalid)
	}
	if err := s.Faults.Validate(s.PABST.EpochCycles); err != nil {
		return fmt.Errorf("config: Faults: %w: %w", err, ErrInvalid)
	}
	if s.ModelNoC && s.Faults != nil && (s.Faults.NoC.DelayProb > 0 || s.Faults.NoC.DropProb > 0) {
		return fmt.Errorf("config: ModelNoC/Faults.NoC: the modeled fabric does not apply NoC faults: %w", ErrInvalid)
	}
	if s.BWWindow == 0 {
		return fmt.Errorf("config: BWWindow: zero bandwidth window: %w", ErrInvalid)
	}
	switch s.Kernel {
	case "", KernelCycle, KernelEvent:
	default:
		return fmt.Errorf("config: Kernel: unknown kernel %q (want %q or %q): %w",
			s.Kernel, KernelCycle, KernelEvent, ErrInvalid)
	}
	return nil
}

// L3TotalBytes returns the aggregate shared-cache capacity.
func (s *System) L3TotalBytes() int { return s.L3SliceBytes * s.NumTiles() }

// PeakBytesPerCycle returns the aggregate DRAM data-bus limit.
func (s *System) PeakBytesPerCycle() float64 {
	return float64(s.NumMCs) * 64.0 / float64(s.DRAM.Timing.TBurst)
}
