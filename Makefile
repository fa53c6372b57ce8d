# Build and test tiers. `make check` is the tier-1 gate (build + vet +
# tests, here and in the frozen bench/ module, plus one race run over
# the run-level pool every multi-run experiment uses by default);
# `make robust` adds the race detector over everything, which the serve
# control plane and the fault-injection chaos sweeps are expected to
# pass too.

GO ?= go

.PHONY: all build check robust bench bench-policies bench-twin serve-smoke faults lint-docs clean

all: check

build:
	$(GO) build ./...

# bench/ is its own module (the repository benchmark, see BENCHMARK.json)
# and only ever changes in a PR of its own; vetting and testing it here
# makes an API removal that breaks it fail at tier-1.
check: build lint-docs
	test -z "$$(gofmt -l .)"
	$(GO) vet ./...
	$(GO) test ./...
	$(GO) test -race -run 'ForEach|SweepParallelism|RunExperimentRunsEachFingerprintOnce|Fig9' ./internal/exp
	$(GO) -C bench vet ./... && $(GO) -C bench test ./...

# Robustness tier: the full suite under the race detector (slower;
# includes the fault-injection chaos sweeps, the oracle-vs-event
# determinism matrix, the golden-trace determinism test, and the sweep
# service's chaos acceptance), plus the cross-policy Pareto,
# analytical-twin divergence, and sweep-service smoke gates, and a short
# slice of each native fuzz target (their seed corpora already run as
# ordinary tests in `make check`).
robust: bench-policies bench-twin serve-smoke
	$(GO) test -race ./...
	$(GO) test -run '^$$' -fuzz FuzzParsePair -fuzztime 10s ./internal/qospolicy
	$(GO) test -run '^$$' -fuzz FuzzRunSpecJSON -fuzztime 10s ./internal/exp

# Micro-benchmarks. One iteration of everything shows each still runs;
# the packages on the per-access and per-cycle memory path then get five
# full samples with allocation counts, so host-cache effects
# (BenchmarkAccessColdSets) and the 0 allocs/op of those paths are
# readable rather than one noisy number. End-to-end numbers come from
# the repository benchmark (`go run -C bench .`), not from here.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...
	$(GO) test -bench=. -benchmem -count=5 -run='^$$' ./internal/cache ./internal/dram ./internal/sim

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

# Documentation gate. Validates intra-repo markdown links, requires a
# package comment on every internal package, and fails if a registered
# QoS policy is missing from the generated reference (docs/POLICIES.md —
# regenerate with `go run ./cmd/pabstdocs -write`).
lint-docs:
	$(GO) run ./cmd/pabstdocs

# Quick clean-vs-faulted comparison.
faults:
	$(GO) run ./cmd/pabstsim -scale quick faults

clean:
	$(GO) clean ./...
