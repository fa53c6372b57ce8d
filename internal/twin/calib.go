package twin

// The model's calibration: the small set of facts it needs to predict a
// registered mechanism's steady state — which allocation discipline the
// mechanism follows and what fraction of raw DRAM bandwidth it delivers
// once the machine saturates — keyed by the mechanism's qospolicy
// registry name. The facts are deliberately coarse (the twin predicts
// operating points, not cycles), and the utilCap values are calibrated
// against the cycle simulator (TestTwinAccuracyRegulationPoints in
// internal/exp logs the standing twin-vs-sim divergence).
//
// A mechanism with no entry is still simulatable; the twin then models
// it as unregulated (a demand split) with zero confidence: a prediction
// to discard, not to rank by.

// sourceCalib describes a source policy to the model.
type sourceCalib struct {
	// feedback: the mechanism discovers the saturation point and
	// enforces entitled shares at the source (the Eq.5 discipline).
	feedback bool
	// caps: the mechanism imposes entitlement-derived budgets without
	// saturation feedback (static limiter, token buckets, predictors
	// clamped to fair share).
	caps bool
	// utilCap is the fraction of peak DRAM bandwidth the machine
	// delivers when this source saturates it (feedback governors hold
	// the pre-knee operating point; budget pacers let queues fill).
	utilCap float64
}

// targetCalib describes a target policy to the model.
type targetCalib struct {
	// weightFair: the MC scheduler enforces weighted shares at
	// admission/pick time (EDF over per-class deadlines). FCFS-style
	// schedulers leave weightFair false and serve demand-proportionally.
	weightFair bool
	// utilCap is the delivered fraction of peak under saturation when
	// the source side does not constrain utilization first.
	utilCap float64
}

var (
	// The governor's SAT search holds utilization at the pre-knee point
	// (~0.84 of peak); unregulated admission runs the bus to ~0.92–0.95
	// before bank/burst waits dominate. bankreg's entitlement-derived
	// token budgets and lmsar's predicted-demand pacing clamped to fair
	// share are budget disciplines without rate discovery: capped
	// without redistribution, with queues run to the unregulated
	// utilization point.
	sourceCalibration = map[string]sourceCalib{
		"none":    {utilCap: 1.0},
		"static":  {caps: true, utilCap: 0.95},
		"pabst":   {feedback: true, caps: true, utilCap: 0.84},
		"bankreg": {caps: true, utilCap: 0.92},
		"lmsar":   {caps: true, utilCap: 0.92},
	}
	// dpq's deadline scheduling enforces weighted shares at the pick,
	// but only over what the unthrottled sources let into the queues.
	targetCalibration = map[string]targetCalib{
		"fcfs":  {utilCap: 0.92},
		"pabst": {weightFair: true, utilCap: 0.95},
		"dpq":   {weightFair: true, utilCap: 0.92},
	}
)
