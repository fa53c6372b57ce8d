package dram

import "fmt"

// Timing holds DRAM device timings expressed in CPU cycles.
type Timing struct {
	TRCD int // ACT to CAS
	TCL  int // CAS to first read data
	TCWL int // CAS to first write data
	TRP  int // precharge
	TRAS int // ACT to PRE minimum

	TBurst int // data bus occupancy of one line transfer

	TRTW int // read-to-write bus turnaround
	TWTR int // write-to-read bus turnaround
}

// Validate reports configuration errors.
func (t Timing) Validate() error {
	if t.TRCD <= 0 || t.TCL <= 0 || t.TCWL <= 0 || t.TRP <= 0 || t.TRAS <= 0 || t.TBurst <= 0 {
		return fmt.Errorf("dram: all core timings must be positive: %+v", t)
	}
	if t.TRTW < 0 || t.TWTR < 0 {
		return fmt.Errorf("dram: negative turnaround: %+v", t)
	}
	return nil
}

// Scale multiplies every timing by factor, modeling a DRAM clocked
// factor× slower relative to the CPU (used by the Figure 11 static
// quarter-bandwidth baseline).
func (t Timing) Scale(factor int) Timing {
	t.TRCD *= factor
	t.TCL *= factor
	t.TCWL *= factor
	t.TRP *= factor
	t.TRAS *= factor
	t.TBurst *= factor
	t.TRTW *= factor
	t.TWTR *= factor
	return t
}

// DDR4 returns DDR4-2400-class timings converted to cycles of a 2 GHz
// CPU clock. Peak per-channel bandwidth is one 64 B line per TBurst
// cycles ≈ 9.1 B/cycle ≈ 18.3 GB/s.
func DDR4() Timing {
	return Timing{
		TRCD:   28, // ~14.2 ns
		TCL:    28,
		TCWL:   20,
		TRP:    28,
		TRAS:   64, // ~32 ns
		TBurst: 7,  // 64 B burst at 19.2 GB/s
		TRTW:   4,
		TWTR:   6,
	}
}

// PagePolicy selects row-buffer management.
type PagePolicy uint8

const (
	// ClosedPage precharges after every access (the paper's policy).
	ClosedPage PagePolicy = iota
	// OpenPage leaves rows open for row-buffer hits.
	OpenPage
)

func (p PagePolicy) String() string {
	switch p {
	case ClosedPage:
		return "closed"
	case OpenPage:
		return "open"
	default:
		return fmt.Sprintf("page(%d)", uint8(p))
	}
}
