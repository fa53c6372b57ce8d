// Package twin is the analytical twin of the simulated machine: a
// closed-form M/G/1-style queueing model, parameterized from the same
// config.System the cycle simulator consumes, that predicts steady-state
// per-class bandwidth shares, DRAM utilization, and mean/p99 latency
// proxies in microseconds instead of millions of simulated cycles.
//
// The model has three layers:
//
//   - A service model of the DRAM channels: peak line bandwidth
//     NumMCs/tBurst, a row-hit/row-miss service-time mixture (closed-page
//     pays activate+CAS on every access, open-page mixes hit and miss
//     service by an assumed hit ratio), and a front-queue wait from the
//     M/G/1 occupancy ρ/(1−ρ) clamped at the configured queue depth.
//
//   - An allocation model per source×target policy pair, driven by the
//     twin's calibration of each registered mechanism (calib.go, keyed
//     by qospolicy registry name): saturation-feedback
//     sources enforce the Eq.5 proportional split exactly (weighted
//     water-filling with demand caps, work-conserving redistribution);
//     budget sources (token buckets, clamped predictors) hold shares only
//     as far as their caps bind, modeled as a pressure-dependent blend
//     between the demand split and the entitled split; weight-fair targets
//     (EDF arbiters) enforce entitlement at the pick but degrade toward
//     the demand split as outstanding demand overruns the queues they
//     reorder; FCFS serves the demand split.
//
//   - A damped fixed-point loop coupling the two: delivered utilization
//     sets queue waits, waits set per-class unconstrained demand
//     (Tiles·MLP·WriteFactor·Duty/T by Little's law), demand sets the
//     allocation, and the allocation sets delivered utilization.
//
// The blend constants and per-policy utilization caps are calibrated
// against the cycle simulator at the fig1/fig5/Pareto operating points;
// TestTwinAccuracyRegulationPoints in internal/exp logs the standing
// divergence over those 17 points and gates its means. Prediction.Confidence
// degrades near regime boundaries (saturation knee, queue-pressure kink)
// and is zero when a policy has no calibration entry or the fixed point
// failed to converge: such a point has to be simulated.
package twin
