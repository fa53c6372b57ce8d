# Build and test tiers. `make check` is the tier-1 gate (build + vet +
# tests, here and in the frozen bench/ module, plus one race run over
# the run-level pool every multi-run experiment uses by default);
# `make robust` adds the race detector over everything, which the serve
# control plane and the fault-injection chaos sweeps are expected to
# pass too.

GO ?= go

.PHONY: all build check robust bench bench-obs bench-ckpt bench-hotpath bench-policies bench-twin bench-scale bench-scale-quick serve-smoke faults lint-deprecated lint-docs clean

all: check

build:
	$(GO) build ./...

# bench/ is its own module (the repository benchmark, see BENCHMARK.json)
# and only ever changes in a PR of its own; vetting and testing it here
# makes an API removal that breaks it fail at tier-1.
check: build lint-deprecated lint-docs
	$(GO) vet ./...
	$(GO) test ./...
	$(GO) test -race -run 'ForEach|SweepParallelism|RunExperimentRunsEachFingerprintOnce|Fig9' ./internal/exp
	$(GO) -C bench vet ./... && $(GO) -C bench test ./...
	$(MAKE) bench-scale-quick

# Robustness tier: the full suite under the race detector (slower;
# includes the fault-injection chaos sweeps, the oracle-vs-event
# determinism matrix, the golden-trace determinism test, and the sweep
# service's chaos acceptance), plus the observability overhead,
# checkpoint warm-start, hot-path, cross-policy Pareto, analytical-twin
# divergence, and sweep-service smoke gates.
robust: bench-obs bench-ckpt bench-hotpath bench-policies bench-twin bench-scale serve-smoke
	$(GO) test -race ./...

# Deprecated-accessor gate: the one-off System observation accessors
# superseded by Snapshot() were removed from the public API; this gate
# keeps them from creeping back into commands, examples, or the public
# surface. snap.GovernorMs( / Snapshot().GovernorMs( is the blessed
# Snapshot method of the same name. The second block bans the
# deprecated per-experiment wrappers outside internal/exp: commands and
# examples must go through the unified registry (exp.ExperimentByName /
# exp.RunExperimentScale). bench_test.go deliberately pins the
# wrappers' behavior.
lint-deprecated:
	@matches=$$(grep -rnE '\.(ClassIPC|TileIPCs|ClassMissLatency|ClassMCReadLatency|SaturatedLastEpoch|MCUtilizations|L3OccupancyOf|GovernorState|GovernorMs|Share)\(' \
		--include='*.go' cmd examples internal/exp policy *.go \
		| grep -v 'snap\.GovernorMs(' | grep -v 'Snapshot()\.GovernorMs(' || true); \
	if [ -n "$$matches" ]; then \
		echo "$$matches"; \
		echo 'lint-deprecated: use Snapshot() instead of the accessors above'; \
		exit 1; \
	fi
	@matches=$$(grep -rnE 'exp\.(Fig1|Fig5|Fig7|Fig10|Fig11|ExtStatic|ExtSkew|ExtHetero|ExtNoC|Faults|RunRegulation|RunIsolationWorkload|RunPolicyPareto)\(' \
		--include='*.go' cmd examples policy *.go \
		| grep -v '^bench_test\.go:' | grep -v '^trace_test\.go:' || true); \
	if [ -n "$$matches" ]; then \
		echo "$$matches"; \
		echo 'lint-deprecated: run experiments through the registry (exp.ExperimentByName + exp.RunExperimentScale) instead of the deprecated wrappers'; \
		exit 1; \
	fi

bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# Observability overhead gate. Times the same workload with probes off,
# with a ring-only observer, and with a streaming JSONL sink, checks the
# three runs stay bit-identical, and writes BENCH_obs.json. The disabled
# configuration must stay within noise of the probe-free baseline.
bench-obs:
	$(GO) run ./cmd/pabstbench -suite obs -out BENCH_obs.json

# Checkpoint subsystem gate. Measures serialized size, save/restore
# latency, and the warm-start speedup of restoring one shared
# post-warmup checkpoint across a reweighted sweep; every warm-started
# run must match its cold twin byte-for-byte. Writes BENCH_ckpt.json.
bench-ckpt:
	$(GO) run ./cmd/pabstbench -suite ckpt -warmup 400000 -cycles 150000 -out BENCH_ckpt.json

# Hot-path gate. Times the indexed memory-controller datapath against
# the frozen pre-index scan (dram.RefController) at front-end queue
# depths 8/32/128 under identical deterministic traffic, recording
# ns/cycle, allocs/cycle, and a service-stream fingerprint per run.
# The indexed run must stay allocation-free and fingerprint-identical
# to the scan. Writes BENCH_hotpath.json.
bench-hotpath:
	$(GO) run ./cmd/pabstbench -suite hotpath -out BENCH_hotpath.json

# Sweep-service gate. Runs the control plane end to end over real HTTP
# — submit a batch, complete, drain, journal compacts to empty — and
# checks that duplicate specs report identical result fingerprints.
# Writes BENCH_serve.json with submit-to-complete and drain latency.
serve-smoke:
	$(GO) run ./cmd/pabstserve -smoke -out BENCH_serve.json

# Cross-policy Pareto gate. Sweeps every registered QoS mechanism pair
# (pabst+pabst, bankreg+fcfs, lmsar+fcfs, none+dpq) across the
# utilization axis on the 7:3 stream mix and records each load's Pareto
# frontier on (share fidelity, hi-class p99 latency). Writes
# BENCH_policies.json; see EXPERIMENTS.md "Cross-policy Pareto sweep".
bench-policies:
	$(GO) run ./cmd/pabstsweep -policies -scale quick -out BENCH_policies.json

# Analytical-twin divergence gate. Simulates the fig1/fig5 regulation
# points and the full cross-policy Pareto grid, predicts each with the
# M/G/1-style twin (internal/twin), and fails if the mean share, p99, or
# utilization error breaches the tolerances declared in
# internal/exp/twinbench.go. Writes BENCH_twin.json; see DESIGN.md
# "Analytical twin".
bench-twin:
	$(GO) run ./cmd/pabstsweep -twin -scale quick -out BENCH_twin.json

# Event-kernel scaling study: the reference loop vs event dispatch
# across three axes — 64-, 256-, and 1024-tile idle-heavy bursty meshes, the non-PABST
# source-policy zoo (static/bankreg/lmsar) at 256 tiles, and an
# MSHR-saturated strict-model 256-tile mesh where wake-on-completion is
# the only thing letting blocked cores sleep. Verifies the two kernels
# stay bit-identical (late wakes included) in every cell and gates on
# the 64-tile no-regression bound (<= 1.10x), the MSHR-saturation floor
# (>= 1.5x), and the policy-axis floor (>= 5x for at least one
# non-PABST policy). Writes BENCH_scale.json; see DESIGN.md
# "Event-driven kernel".
bench-scale:
	$(GO) run ./cmd/pabstbench -suite scale -cycles 100000 -out BENCH_scale.json

# The tier-1 slice of the scaling study: every scenario at the 64-tile
# mesh only, gating on bit-identity, zero late wakes, and the 64-tile
# no-regression bound (the full-suite speedup floors need the larger
# meshes and stay in `make robust`). Writes BENCH_scale_quick.json.
bench-scale-quick:
	$(GO) run ./cmd/pabstbench -suite scale -quick -cycles 60000 -out BENCH_scale_quick.json

# Documentation gate. Validates intra-repo markdown links, requires a
# package comment on every internal package, and fails if a registered
# QoS policy is missing from the generated reference (docs/POLICIES.md —
# regenerate with `go run ./cmd/pabstdocs -write`).
lint-docs:
	$(GO) run ./cmd/pabstdocs

# Quick clean-vs-faulted comparison (the BENCH_faults.json scenario).
faults:
	$(GO) run ./cmd/pabstsim -scale quick faults

clean:
	$(GO) clean ./...
