package qospolicy

import (
	"pabst/internal/dram"
	"pabst/internal/pabst"
	"pabst/internal/regulate"
)

// The built-in mechanisms: the PABST halves and the two baselines the
// paper compares against. Their factories reproduce the construction
// the pre-plugin mode switches performed, argument for argument, which
// is what keeps the preset pairs fingerprint-identical.
func init() {
	registerSource(Info{
		Name: "none",
		Desc: "pass-through: no source regulation (baseline)",
		Cite: "Hower, Cain, Waldspurger, \"PABST\", HPCA 2017 (no-QoS baseline)",
	}, func(SourceEnv) regulate.Source { return regulate.Unthrottled{} })

	registerSource(Info{
		Name:   "static",
		Desc:   "fixed non-work-conserving rate limit from the configured share",
		Params: "BurstCredit",
		Cite:   "clock-modulation / MITTS-style static limiting, per PABST Section II",
	}, func(env SourceEnv) regulate.Source {
		return pabst.NewStaticLimiter(env.Params, env.Reg, env.Class, env.PeakBytesPerCycle)
	})

	registerSource(Info{
		Name:   "pabst",
		Desc:   "adaptive SAT-feedback governor (one lane per channel when PerMCGovernors)",
		Params: "EpochCycles, ScaleF, Inertia, BurstCredit, M*/Shift* bounds, PerMCGovernors, a fault plan arms its watchdog and resync",
		Cite:   "Hower, Cain, Waldspurger, \"PABST\", HPCA 2017 (Section III-B)",
	}, func(env SourceEnv) regulate.Source {
		lanes := 1
		if env.Params.PerMCGovernors {
			lanes = env.NumMCs
		}
		return pabst.NewLaneGovernor(env.Params, env.Reg, env.Class, lanes)
	})

	registerTarget(Info{
		Name: "fcfs",
		Desc: "first-come first-served front end, no prioritization (baseline)",
		Cite: "Hower, Cain, Waldspurger, \"PABST\", HPCA 2017 (no-QoS baseline)",
	}, func(TargetEnv) (dram.ReadSched, dram.Arbiter) {
		return dram.SchedFCFS, nil
	})

	registerTarget(Info{
		Name:   "pabst",
		Desc:   "fair earliest-virtual-deadline arbiter with slack-capped credit",
		Params: "Slack",
		Cite:   "Hower, Cain, Waldspurger, \"PABST\", HPCA 2017 (Section III-C2)",
	}, func(env TargetEnv) (dram.ReadSched, dram.Arbiter) {
		return dram.SchedEDF, pabst.NewArbiter(env.Reg, env.Params.Slack)
	})
}
