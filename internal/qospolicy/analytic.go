package qospolicy

// Analytical twin hooks. Each registered mechanism declares the small
// set of facts the closed-form model in internal/twin needs to predict
// its steady state: which allocation discipline the mechanism follows
// and what fraction of raw DRAM bandwidth it delivers once the machine
// saturates. The hooks are deliberately coarse — the twin predicts
// operating points, not cycles — and the declared UtilCap values are
// calibrated against the cycle simulator (TestTwinAccuracyRegulationPoints
// in internal/exp logs the standing twin-vs-sim divergence).
//
// A mechanism that registers no hook is still simulatable; the twin
// then falls back to an unregulated (demand-split) model with zero
// confidence: a prediction to discard, not to rank by.

// SourceAnalytic describes a source policy to the analytical twin.
type SourceAnalytic struct {
	// Feedback: the mechanism discovers the saturation point and
	// enforces entitled shares at the source (the Eq.5 discipline).
	Feedback bool
	// Caps: the mechanism imposes entitlement-derived budgets without
	// saturation feedback (static limiter, token buckets, predictors
	// clamped to fair share).
	Caps bool
	// UtilCap is the fraction of peak DRAM bandwidth the machine
	// delivers when this source saturates it (feedback governors hold
	// the pre-knee operating point; budget pacers let queues fill).
	UtilCap float64
}

// TargetAnalytic describes a target policy to the analytical twin.
type TargetAnalytic struct {
	// WeightFair: the MC scheduler enforces weighted shares at
	// admission/pick time (EDF over per-class deadlines). FCFS-style
	// schedulers leave WeightFair false and serve demand-proportionally.
	WeightFair bool
	// UtilCap is the delivered fraction of peak under saturation when
	// the source side does not constrain utilization first.
	UtilCap float64
}

var (
	sourceAnalytics = map[string]SourceAnalytic{}
	targetAnalytics = map[string]TargetAnalytic{}
)

// setSourceAnalytic declares twin hooks for a registered source policy.
// Called from the same init() that registers the mechanism.
func setSourceAnalytic(name string, a SourceAnalytic) {
	if _, ok := sources[name]; !ok {
		panic("qospolicy: analytic hook for unregistered source " + name)
	}
	sourceAnalytics[name] = a
}

// setTargetAnalytic declares twin hooks for a registered target policy.
func setTargetAnalytic(name string, a TargetAnalytic) {
	if _, ok := targets[name]; !ok {
		panic("qospolicy: analytic hook for unregistered target " + name)
	}
	targetAnalytics[name] = a
}

// SourceAnalyticFor returns the declared twin hooks for a source
// policy. ok is false when the mechanism never declared any, in which
// case callers should model it as unregulated and report low
// confidence.
func SourceAnalyticFor(name string) (SourceAnalytic, bool) {
	a, ok := sourceAnalytics[name]
	return a, ok
}

// TargetAnalyticFor returns the declared twin hooks for a target
// policy.
func TargetAnalyticFor(name string) (TargetAnalytic, bool) {
	a, ok := targetAnalytics[name]
	return a, ok
}
