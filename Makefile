# Build and test tiers. `make check` is the tier-1 gate (build + vet +
# tests, here and in the frozen bench/ module, plus one race run over
# the run-level pool every multi-run experiment uses by default and one
# over the service's lock-ordered settle/Drain/Close paths, each with
# two workers sharing one result cache);
# `make robust` adds the race detector over everything, which the serve
# control plane and the fault-injection chaos sweeps are expected to
# pass too.

GO ?= go

.PHONY: all build check robust bench faults lint-docs clean

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
	$(GO) test -race -run 'ForEach|SweepParallelism|RunExperimentRunsEachFingerprintOnce|RunSpecRunResultCache|Fig9' ./internal/exp
	$(GO) test -race -run 'Drain|Chaos|Deadline|PanicIsolation|NotRetried|RunsOnce|FailureIsFinal|ResultCacheAnswersResubmission|CloseHonorsGrace' ./internal/serve
	$(GO) -C bench vet ./... && $(GO) -C bench test ./...

# Robustness tier: the full suite under the race detector (slower;
# includes the fault-injection chaos sweeps, the oracle-vs-event
# determinism matrix, the golden-trace determinism test, and the sweep
# service's chaos acceptance), plus a short slice of each native fuzz
# target (their seed corpora already run as ordinary tests in `make
# check`). FuzzRestore's inputs are ~20 KB checkpoint images and
# FuzzConfigJSON's ~2 KB configurations; minimizing each one that finds
# new coverage would eat the whole slice, so it is switched off.
robust:
	$(GO) test -race ./...
	$(GO) test -run '^$$' -fuzz FuzzParsePair -fuzztime 10s ./internal/qospolicy
	$(GO) test -run '^$$' -fuzz FuzzRunSpecJSON -fuzztime 10s ./internal/exp
	$(GO) test -run '^$$' -fuzz FuzzSubmitBody -fuzztime 10s ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzLoadJournal -fuzztime 10s ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzConfigJSON -fuzztime 10s -fuzzminimizetime 1x ./internal/soc
	$(GO) test -run '^$$' -fuzz FuzzRestore -fuzztime 10s -fuzzminimizetime 1x .

# Micro-benchmarks. One iteration of everything shows each still runs;
# the packages on the per-access, per-miss and per-cycle memory path
# then get five full samples with allocation counts, so host-cache
# effects (BenchmarkAccessColdSets) and the 0 allocs/op of those paths
# (BenchmarkMSHRTable, BenchmarkTileMissSteadyState, BenchmarkHistAdd)
# are readable rather than one noisy number. End-to-end numbers come from
# the repository benchmark (`go run -C bench .`), not from here.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...
	$(GO) test -bench=. -benchmem -count=5 -run='^$$' ./internal/cache ./internal/dram ./internal/sim ./internal/soc ./internal/stats

# Documentation gate (also a test: cmd/pabstdocs runs it under `go test
# ./...`). Validates intra-repo markdown links, requires a package
# comment on every internal package, and fails if a registered QoS policy
# is missing from the generated reference (docs/POLICIES.md — regenerate
# with `go run ./cmd/pabstdocs -write`).
lint-docs:
	$(GO) run ./cmd/pabstdocs

# Quick clean-vs-faulted comparison.
faults:
	$(GO) run ./cmd/pabstsim -scale quick faults

clean:
	$(GO) clean ./...
