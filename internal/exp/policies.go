package exp

import "pabst"

// ParetoPairs returns the four mechanisms the cross-policy comparison
// sweeps: the full PABST pair and the three related-work schemes, each
// living on the half of the source/target split its paper occupies.
func ParetoPairs() []pabst.Mode {
	return []pabst.Mode{
		pabst.ModePABST,                     // adaptive source governor + EDF target arbiter
		{Source: "bankreg", Target: "fcfs"}, // per-channel budgets, unmanaged target
		{Source: "lmsar", Target: "fcfs"},   // LMS-predictive source pacing, unmanaged target
		{Source: "none", Target: "dpq"},     // unmanaged source, bounded-latency target arbiter
	}
}

// ParetoLoads returns the utilization axis: active tiles per class on
// the 7:3 two-stream-class mix. 4 leaves the memory system uncontended,
// 16 saturates it.
func ParetoLoads() []int { return []int{4, 8, 16} }

// paretoEntitledHi is the high class's entitled share under 7:3 weights.
const paretoEntitledHi = 0.7

// ParetoPoint is one (policy pair, load) measurement: how faithfully the
// pair delivered the 7:3 split, at what tail latency, and how much of
// the machine it kept busy.
type ParetoPoint struct {
	Source string
	Target string
	// Load is the number of active tiles per class.
	Load int

	// ShareHi is the high class's observed DRAM-traffic fraction;
	// ShareErr is its relative error against the 0.7 entitlement, in
	// percent — the throughput-share-fidelity axis.
	ShareHi  float64
	ShareErr float64
	// P99Hi / P99Lo are the classes' p99 end-to-end miss latencies in
	// cycles — the tail-latency axis.
	P99Hi uint64
	P99Lo uint64
	// BusUtil and TotalBPC report delivered throughput.
	BusUtil  float64
	TotalBPC float64

	// Frontier marks the point Pareto-optimal among the pairs at its
	// load: no other pair is at least as good on both ShareErr and P99Hi
	// and strictly better on one.
	Frontier bool
}

// markFrontier flags, within each load group, the points no other point
// dominates on (ShareErr, P99Hi) — lower is better on both axes.
func markFrontier(points []ParetoPoint) {
	for i := range points {
		dominated := false
		for j := range points {
			if i == j || points[j].Load != points[i].Load {
				continue
			}
			jNoWorse := points[j].ShareErr <= points[i].ShareErr && points[j].P99Hi <= points[i].P99Hi
			jBetter := points[j].ShareErr < points[i].ShareErr || points[j].P99Hi < points[i].P99Hi
			if jNoWorse && jBetter {
				dominated = true
				break
			}
		}
		points[i].Frontier = !dominated
	}
}
