package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// workloadDef, metricDef and the three lists below are the benchmark's
// declaration; BENCHMARK.json at the repository root carries the same
// lists and TestDeclarationMatchesBenchmarkJSON keeps them identical.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// Limits of the declaration (the driver refuses a file outside them).
const (
	maxWorkloads = 8
	maxEndToEnd  = 16
	maxPerLayer  = 128
	maxBound     = 0.25
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

var workloads = []workloadDef{
	{"sat32", "32 tiles of 7:3 read streams saturate DRAM: every component is busy every cycle, so dram/cache/cpu/soc do the work and sim scheduling is pure overhead"},
	{"mix32", "16 pointer chasers vs 16 write streamers on the same machine: write-queue drains, dirty L3 evictions, latency-bound cores; a read-only optimisation that costs writes shows here"},
	{"idle256", "16x16 mesh of bursty tiles that sleep 15-25k cycles between bursts: timing wheels, wake graph and pacer scheduling do the work and dram/cache do little; the mirror image of sat32"},
	{"figs", "the paper's figure set through the experiment registry with one RunCache and default kernel, as pabstsim runs it: every generator, mode and policy, the modeled NoC and a fault plan"},
	{"sweep", "closed loop of 4 outstanding jobs over loopback REST into a 2-worker serve.Service: journal fsync, queueing, JSON and warm-start restore are a visible share next to simulation"},
}

// End-to-end metrics. Every workload reports every one of them (the
// driver's contract), so each is defined in units every workload has:
// work_per_s counts the unit of work the workload's user asks for —
// simulated kcycles (sat32, mix32, idle256), figure sets (figs), jobs
// (sweep).
var endToEnd = []metricDef{
	{"work_per_s", "1/s", "higher", 0.25},
	{"live_heap_mb", "MB", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// eventClasses are the event kernel's dispatch classes in class order,
// as Snapshot.EventClasses names them.
var eventClasses = []string{"epoch", "net", "mc", "slice", "tile"}

// Policy and generator names the per-layer drivers cover. The tests
// compare the policy lists against the product registry.
var (
	sourcePolicies = []string{"bankreg", "lmsar", "none", "pabst", "static"}
	targetPolicies = []string{"dpq", "fcfs", "pabst"}
	generators     = []string{"stream", "chaser", "bursty", "mcf", "libquantum", "memcached"}
	figures        = []string{"fig1", "fig5", "fig7", "fig8", "fig9", "fig10", "fig12", "fig11", "ext-static", "ext-noc", "faults"}
)

// perLayer lists every per-layer metric, layer = package name. A
// workload that does not exercise a layer reports 0 for its in-workload
// metrics; the isolated drivers run in every traced run.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(name, unit, better string) { out = append(out, metricDef{Name: name, Unit: unit, Better: better}) }

	// Simulated outputs (exact for a seed) and output checks.
	add("soc.hi_share", "share", "higher")
	add("soc.share_err", "share", "lower")
	add("soc.p99_hi_cycles", "cycles", "lower")
	add("soc.bus_util", "share", "higher")
	add("ops_total", "count", "higher")
	add("ops_failed", "count", "lower")

	// In-workload, machine workloads.
	add("soc.build_ms", "ms", "lower")
	add("soc.warmup_s", "s", "lower")
	add("soc.snapshot_us", "us", "lower")
	add("soc.run_ns_per_cycle", "ns", "lower")
	add("soc.host_ns_per_mem_req", "ns", "lower")
	add("soc.allocs_per_kcycle", "count", "lower")
	add("ckpt.save_ms", "ms", "lower")
	add("ckpt.restore_ms", "ms", "lower")
	add("ckpt.bytes", "bytes", "lower")
	for _, c := range eventClasses {
		add("sim.visited_per_kcycle."+c, "count", "lower")
	}
	add("sim.skipped_frac", "share", "higher")
	add("sim.late_wakes", "count", "lower")
	add("dram.row_hit_rate", "share", "higher")
	add("sim.est_share", "share", "lower")
	add("dram.est_share", "share", "lower")
	add("cpu.est_share", "share", "lower")
	add("soc.residual_share", "share", "lower")

	// In-workload, figs.
	for _, f := range figures {
		add("exp.fig_s."+f, "s", "lower")
	}
	add("exp.wall_s", "s", "lower")
	add("exp.runs", "count", "lower")
	add("exp.cache_hit_frac", "share", "higher")
	add("exp.tables_changed", "count", "lower")

	// In-workload, sweep.
	add("serve.jobs_per_s", "1/s", "higher")
	add("serve.cold_round_s", "s", "lower")
	add("serve.job_latency_p50_ms", "ms", "lower")
	add("serve.job_latency_tail_ms", "ms", "lower")
	add("serve.job_latency_tail_pct", "%", "higher")
	add("serve.submit_ms_p50", "ms", "lower")
	add("serve.poll_ms_p50", "ms", "lower")
	add("serve.queue_wait_ms_p50", "ms", "lower")
	add("serve.run_ms_p50", "ms", "lower")
	add("serve.drain_ms", "ms", "lower")
	add("serve.journal_bytes", "bytes", "lower")

	// Traced run.
	add("trace.spans", "count", "lower")
	add("trace.self_sum_frac", "share", "higher")
	add("trace.overhead_frac", "share", "lower")

	// Isolated drivers, one layer each.
	add("sim.ns_per_dispatch", "ns", "lower")
	add("sim.ns_per_wake", "ns", "lower")
	add("sim.ns_per_skipped_cycle", "ns", "lower")
	add("dram.ns_per_tick_busy", "ns", "lower")
	add("dram.ns_per_req", "ns", "lower")
	add("dram.ns_per_req_write", "ns", "lower")
	add("dram.ns_per_tick_idle", "ns", "lower")
	add("cache.ns_per_access_hit", "ns", "lower")
	add("cache.ns_per_access_miss", "ns", "lower")
	add("cache.ns_per_writeback", "ns", "lower")
	add("cpu.ns_per_tick_busy", "ns", "lower")
	add("cpu.ns_per_tick_blocked", "ns", "lower")
	add("noc.ns_per_route", "ns", "lower")
	add("noc.net_ns_per_tick", "ns", "lower")
	add("pabst.gov_ns_per_epoch", "ns", "lower")
	add("pabst.pacer_ns_per_issue", "ns", "lower")
	add("pabst.arb_ns_per_pick", "ns", "lower")
	for _, p := range sourcePolicies {
		add("qospolicy.src_ns_per_issue."+p, "ns", "lower")
	}
	for _, p := range targetPolicies {
		add("qospolicy.tgt_ns_per_pick."+p, "ns", "lower")
	}
	for _, g := range generators {
		add("workload.ns_per_op."+g, "ns", "lower")
	}
	add("stats.hist_ns_per_add", "ns", "lower")
	add("obs.ns_per_event", "ns", "lower")
	add("obs.run_overhead_frac", "share", "lower")
	add("twin.solve_us", "us", "lower")
	return out
}

// runSeconds is how long the driver lets one run measure.
const runSeconds = 15

// benchmarkFile is the shape of BENCHMARK.json.
type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

func declaration() benchmarkFile {
	return benchmarkFile{
		Command: []string{"go", "run", "-C", "bench", "."}, Paths: []string{"bench"}, RunSeconds: runSeconds,
		Workloads: workloads, EndToEnd: endToEnd, PerLayer: perLayer,
	}
}

// checkDeclaration enforces the declaration's limits: name syntax,
// uniqueness, list sizes and bounds.
func checkDeclaration(ws []workloadDef, e2e, layer []metricDef) error {
	if len(ws) < 2 || len(ws) > maxWorkloads {
		return fmt.Errorf("%d workloads, want 2..%d", len(ws), maxWorkloads)
	}
	if len(e2e) < 1 || len(e2e) > maxEndToEnd {
		return fmt.Errorf("%d end-to-end metrics, want 1..%d", len(e2e), maxEndToEnd)
	}
	if len(layer) < 1 || len(layer) > maxPerLayer {
		return fmt.Errorf("%d per-layer metrics, want 1..%d", len(layer), maxPerLayer)
	}
	seen := map[string]bool{}
	name := func(n string) error {
		if !nameRE.MatchString(n) {
			return fmt.Errorf("bad name %q", n)
		}
		if seen[n] {
			return fmt.Errorf("name %q used twice", n)
		}
		seen[n] = true
		return nil
	}
	for _, w := range ws {
		if err := name(w.Name); err != nil {
			return err
		}
		if w.Why == "" || len(w.Why) > 200 {
			return fmt.Errorf("workload %s: why must be 1..200 characters, has %d", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range e2e {
		if err := name(m.Name); err != nil {
			return err
		}
		if m.Bound <= 0 || m.Bound > maxBound {
			return fmt.Errorf("metric %s: bound %g outside (0, %g]", m.Name, m.Bound, maxBound)
		}
		if m.Better != "higher" && m.Better != "lower" {
			return fmt.Errorf("metric %s: better=%q", m.Name, m.Better)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		return fmt.Errorf("no setup_s metric in s, lower is better")
	}
	for _, m := range layer {
		if err := name(m.Name); err != nil {
			return err
		}
		if m.Bound != 0 {
			return fmt.Errorf("per-layer metric %s has a bound", m.Name)
		}
		if m.Better != "higher" && m.Better != "lower" {
			return fmt.Errorf("metric %s: better=%q", m.Name, m.Better)
		}
	}
	return nil
}

// summary describes one host timing's samples; Median is the value the
// benchmark reports, the rest sits beside it in every output.
type summary struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Max    float64 `json:"max"`
}

// summarize computes min, quartiles and max. Quartiles follow Python's
// statistics.quantiles(values, n=4) — the rule the driver applies to
// the ten-seed spreads — so the numbers printed here compare directly.
func summarize(values []float64) summary {
	n := len(values)
	if n == 0 {
		return summary{}
	}
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	s := summary{N: n, Min: v[0], Max: v[n-1], Median: quantile(v, 0.5)}
	s.Q1, s.Q3 = quantile(v, 0.25), quantile(v, 0.75)
	return s
}

// quantile interpolates the p-quantile of sorted at position p*(n+1),
// clamped to the ends (the "exclusive" method).
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	pos := p*float64(n+1) - 1
	if pos <= 0 {
		return sorted[0]
	}
	if pos >= float64(n-1) {
		return sorted[n-1]
	}
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// tailPercentile returns the highest of the usual tail percentiles that
// still has at least ten of n samples beyond it (50 when none has).
func tailPercentile(n int) float64 {
	best := 50.0
	for _, perMille := range []int{900, 950, 990, 999} {
		if n*(1000-perMille) >= 10*1000 {
			best = float64(perMille) / 10
		}
	}
	return best
}

// percentile returns the p-th percentile (nearest rank) of values.
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	rank := int(math.Ceil(p/100*float64(len(v)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(v) {
		rank = len(v) - 1
	}
	return v[rank]
}

// worseBy reports by what share of base the value cur is worse, given
// the metric's direction; negative when it is better.
func worseBy(better string, base, cur float64) float64 {
	if base == 0 {
		return 0
	}
	if better == "higher" {
		return (base - cur) / math.Abs(base)
	}
	return (cur - base) / math.Abs(base)
}
