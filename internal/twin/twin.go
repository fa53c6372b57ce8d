package twin

import (
	"errors"
	"fmt"
	"math"

	"pabst/internal/config"
	"pabst/internal/dram"
	"pabst/internal/qospolicy"
)

// ClassLoad describes one QoS class's offered load to the model.
type ClassLoad struct {
	Name   string
	Weight int // allocation weight (entitlement = Weight/ΣWeight)
	Tiles  int // generating tiles attached to the class

	// MLP is the effective number of outstanding demand misses per tile
	// (bounded by MSHRs; stream generators sustain about half the MSHR
	// budget once paced, pointer chasers sustain their chain count).
	MLP float64

	// WriteFactor is DRAM line transfers per demand miss: 1 for clean
	// read streams, 2 for write-allocate streams (fill + writeback).
	WriteFactor float64

	// Duty is the fraction of time the class generates demand (1 for
	// constant generators). Phase behavior itself is not modeled; Duty
	// scales mean demand and lowers prediction confidence.
	Duty float64
}

func (c ClassLoad) demandScale() float64 {
	d := c.Duty
	if d <= 0 || d > 1 {
		d = 1
	}
	return float64(c.Tiles) * c.MLP * c.WriteFactor * d
}

// Prediction is the model's steady-state operating point.
type Prediction struct {
	Classes []string  `json:"classes"`
	Shares  []float64 `json:"shares"`   // fraction of delivered line bandwidth
	Rates   []float64 `json:"rates"`    // lines per cycle
	MeanLat []float64 `json:"mean_lat"` // end-to-end miss latency proxy, cycles
	P99Lat  []float64 `json:"p99_lat"`  // tail proxy, cycles

	Util     float64 `json:"util"`      // delivered fraction of peak data-bus bandwidth
	TotalBPC float64 `json:"total_bpc"` // delivered bytes per cycle

	// Pressure is total outstanding demand (lines) over front-queue
	// capacity; Overload is unconstrained demand over deliverable
	// bandwidth. Both drive the allocation blends above 1.0.
	Pressure float64 `json:"pressure"`
	Overload float64 `json:"overload"`

	// Confidence ∈ [0,1]: 1 deep in a calibrated regime, degraded near
	// regime boundaries, 0 when unconverged or when a policy has
	// no calibration entry. A low-confidence point has to be simulated.
	Confidence float64 `json:"confidence"`
	Converged  bool    `json:"converged"`
	Iterations int     `json:"iterations"`
}

// Model holds the config-derived scalars of the service model.
type Model struct {
	peakLines float64 // lines per cycle, all channels
	lineBytes float64
	numMCs    int
	frontCap  float64 // total front-queue capacity, lines
	frontQ    float64 // per-channel read-queue depth
	busSvc    float64 // per-line bus service time at one channel, cycles
	baseLat   float64 // uncontended end-to-end miss latency, cycles
}

// openPageHitRatio is the assumed row-hit probability under open-page
// policy (cross-tile interleaving destroys most stream locality).
const openPageHitRatio = 0.5

// New builds the analytical model for a system configuration.
func New(cfg config.System) *Model {
	t := cfg.DRAM.Timing
	burst := float64(t.TBurst)

	// Row-hit/row-miss service mixture. The data bus is busy TBurst per
	// line; bank occupancy (activate→precharge) pipelines across Banks
	// banks, so it binds only when Banks is small relative to the row
	// cycle. Closed page activates on every access; open page mixes by
	// the assumed hit ratio.
	rowCycle := float64(t.TRAS + t.TRP)
	missFrac := 1.0
	rowLat := float64(t.TRCD + t.TCL)
	if cfg.DRAM.Policy == dram.OpenPage {
		missFrac = 1 - openPageHitRatio
		rowLat = float64(t.TCL) + missFrac*float64(t.TRP+t.TRCD)
	}
	banks := float64(cfg.DRAM.Banks)
	if banks < 1 {
		banks = 1
	}
	busSvc := math.Max(burst, missFrac*rowCycle/banks)

	// Uncontended latency: cache lookup walk, two NoC traversals at the
	// mean mesh distance, row access, and the data burst.
	meanHops := float64(cfg.MeshCols+cfg.MeshRows) / 2
	nocLat := 2 * (float64(cfg.NoC.BaseDelay) + meanHops*float64(cfg.NoC.RouterDelay+cfg.NoC.LinkDelay))
	base := float64(cfg.L1HitLat+cfg.L2HitLat+cfg.L3HitLat) + nocLat + rowLat + burst

	return &Model{
		peakLines: float64(cfg.NumMCs) / burst,
		lineBytes: 64,
		numMCs:    cfg.NumMCs,
		frontCap:  float64(cfg.NumMCs * cfg.DRAM.FrontReadQ),
		frontQ:    float64(cfg.DRAM.FrontReadQ),
		busSvc:    busSvc,
		baseLat:   base,
	}
}

// Calibrated allocation-blend constants (see the package doc; the
// accuracy test in internal/exp logs the sim-vs-twin residuals they
// leave).
const (
	// Budget sources: caps bind progressively as queue pressure grows.
	budgetHoldSlope = 0.31
	budgetHoldMax   = 0.37
	// Weight-fair targets: entitlement enforcement decays with queue
	// pressure down to a floor.
	targetHoldBase  = 0.71
	targetHoldSlope = 0.265
	targetHoldFloor = 0.20
	// Tail proxies: p99/mean ratio, and its growth with pressure when
	// no feedback source smooths the arrival process.
	tailBase          = 1.4
	tailPressureBoost = 0.4

	maxIter = 200
	damp    = 0.5
	tol     = 1e-9
)

var errNoClasses = errors.New("twin: no classes")

// Solve computes the steady-state operating point for the given policy
// pair and class loads.
func (m *Model) Solve(source, target string, classes []ClassLoad) (Prediction, error) {
	if len(classes) == 0 {
		return Prediction{}, errNoClasses
	}
	if !qospolicy.ValidSource(source) {
		return Prediction{}, fmt.Errorf("twin: unknown source policy %q", source)
	}
	if !qospolicy.ValidTarget(target) {
		return Prediction{}, fmt.Errorf("twin: unknown target policy %q", target)
	}
	srcA, srcOK := sourceCalibration[source]
	tgtA, tgtOK := targetCalibration[target]
	if !srcOK {
		srcA = sourceCalib{utilCap: 1} // model as unregulated
	}
	if !tgtOK {
		tgtA = targetCalib{utilCap: 1}
	}
	srcCap, tgtCap := srcA.utilCap, tgtA.utilCap
	if srcCap <= 0 {
		srcCap = 1
	}
	if tgtCap <= 0 {
		tgtCap = 1
	}
	utilCap := math.Min(srcCap, tgtCap)
	cEff := m.peakLines * utilCap

	n := len(classes)
	sumW := 0.0
	pressure := 0.0
	for _, c := range classes {
		sumW += float64(c.Weight)
		pressure += c.demandScale()
	}
	pressure /= m.frontCap

	entitled := make([]float64, n)
	for i, c := range classes {
		if sumW > 0 {
			entitled[i] = float64(c.Weight) / sumW
		}
	}

	// Damped fixed point on delivered utilization: util → queue wait →
	// unconstrained demand → allocation → util.
	util := utilCap / 2
	d0 := make([]float64, n)
	rates := make([]float64, n)
	var overload, wq float64
	converged := false
	iters := 0
	for ; iters < maxIter; iters++ {
		occ := math.Min(util/math.Max(1-util, 1e-6), m.frontQ)
		wq = occ * m.busSvc
		t0 := m.baseLat + wq

		sumD := 0.0
		for i, c := range classes {
			d0[i] = c.demandScale() / t0
			sumD += d0[i]
		}
		overload = sumD / cEff
		m.allocate(srcA, tgtA, entitled, d0, sumD, cEff, pressure, rates)

		delivered := 0.0
		for _, r := range rates {
			delivered += r
		}
		next := delivered / m.peakLines
		if math.Abs(next-util) < tol {
			util = next
			converged = true
			iters++
			break
		}
		util += damp * (next - util)
	}

	p := Prediction{
		Classes:    make([]string, n),
		Shares:     make([]float64, n),
		Rates:      append([]float64(nil), rates...),
		MeanLat:    make([]float64, n),
		P99Lat:     make([]float64, n),
		Util:       util,
		Pressure:   pressure,
		Overload:   overload,
		Converged:  converged,
		Iterations: iters,
	}
	total := 0.0
	for _, r := range rates {
		total += r
	}
	p.TotalBPC = total * m.lineBytes
	tail := tailBase
	if !srcA.feedback {
		tail = tailBase * (1 + tailPressureBoost*(math.Max(pressure, 1)-1))
	}
	for i, c := range classes {
		p.Classes[i] = c.Name
		if total > 0 {
			p.Shares[i] = rates[i] / total
		}
		wf := c.WriteFactor
		if wf <= 0 {
			wf = 1
		}
		mean := m.baseLat + wq
		if rates[i] < d0[i]*(1-1e-9) {
			// Throttled class: latency is set by its own backlog
			// draining at the allocated rate (Little's law), on top of
			// the service path.
			readOutst := float64(c.Tiles) * c.MLP
			readRate := math.Max(rates[i]/wf, 1e-9)
			mean += readOutst / readRate
		}
		p.MeanLat[i] = mean
		p.P99Lat[i] = mean * tail
	}
	p.Confidence = confidence(srcOK && tgtOK, converged, overload, pressure, classes)
	return p, nil
}

// allocate fills rates[i] with each class's delivered line bandwidth
// under the policy pair's discipline.
func (m *Model) allocate(srcA sourceCalib, tgtA targetCalib,
	entitled, d0 []float64, sumD, cEff, pressure float64, rates []float64) {
	n := len(d0)
	if sumD <= cEff || sumD == 0 {
		copy(rates, d0) // uncontended: everyone runs at demand
		return
	}
	dshare := make([]float64, n)
	for i, d := range d0 {
		dshare[i] = d / sumD
	}
	tshare := make([]float64, n)
	lp := math.Log2(math.Max(pressure, 1))
	switch {
	case srcA.feedback:
		// Eq.5 discipline: entitled shares, water-filled below.
		copy(tshare, entitled)
	case srcA.caps:
		// Budgets bind progressively as pressure grows; the unregulated
		// writeback half and budget forgiveness keep the blend partial.
		hold := math.Min(budgetHoldSlope*lp, budgetHoldMax)
		for i := range tshare {
			tshare[i] = dshare[i] + hold*(entitled[i]-dshare[i])
		}
	case tgtA.weightFair:
		// Pick-time enforcement decays as unthrottled sources overrun
		// the queues the arbiter reorders.
		hold := math.Min(math.Max(targetHoldBase-targetHoldSlope*lp, targetHoldFloor), 1)
		for i := range tshare {
			tshare[i] = dshare[i] + hold*(entitled[i]-dshare[i])
		}
	default:
		copy(tshare, dshare) // FCFS: demand split
	}
	waterfill(tshare, d0, cEff, rates)
}

// waterfill allocates capacity c by target shares with demand caps:
// classes whose demand is below their slice keep their demand, and the
// surplus is redistributed over the remaining classes by their shares
// (the work-conserving redistribution of Eq.5).
func waterfill(tshare, d0 []float64, c float64, rates []float64) {
	n := len(d0)
	capped := make([]bool, n)
	for i := range rates {
		rates[i] = 0
	}
	remaining := c
	for pass := 0; pass < n; pass++ {
		shareSum := 0.0
		for i := range tshare {
			if !capped[i] {
				shareSum += tshare[i]
			}
		}
		if shareSum <= 0 || remaining <= 0 {
			break
		}
		progress := false
		for i := range tshare {
			if capped[i] {
				continue
			}
			slice := remaining * tshare[i] / shareSum
			if d0[i] <= slice {
				rates[i] = d0[i]
				capped[i] = true
				remaining -= d0[i]
				progress = true
			}
		}
		if !progress {
			// No class is demand-capped: split what remains by shares.
			for i := range tshare {
				if !capped[i] {
					rates[i] = remaining * tshare[i] / shareSum
				}
			}
			return
		}
	}
	// Any class left uncapped after n passes takes its slice.
	shareSum := 0.0
	for i := range tshare {
		if !capped[i] {
			shareSum += tshare[i]
		}
	}
	if shareSum > 0 && remaining > 0 {
		for i := range tshare {
			if !capped[i] {
				rates[i] = remaining * tshare[i] / shareSum
			}
		}
	}
}

func confidence(hooks, converged bool, overload, pressure float64, classes []ClassLoad) float64 {
	if !hooks || !converged {
		return 0
	}
	conf := 1.0
	if overload > 0.7 && overload < 1.4 {
		conf -= 0.4 // saturation knee: regime boundary
	}
	if pressure > 0.8 && pressure < 1.3 {
		conf -= 0.2 // queue-pressure kink in the blend formulas
	}
	for _, c := range classes {
		if c.Duty > 0 && c.Duty < 1 {
			conf -= 0.2 // phase behavior is averaged, not modeled
			break
		}
	}
	if conf < 0 {
		conf = 0
	}
	return conf
}
