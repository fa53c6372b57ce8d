package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95}, {240, 95}, {999, 95}, {1000, 99}, {10000, 99.9}} {
		got := tailPercentile(c.n)
		if got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if beyond := float64(c.n) * (1 - got/100); got > 50 && beyond < 10-1e-9 {
			t.Errorf("tailPercentile(%d) = %v leaves %.1f samples beyond it", c.n, got, beyond)
		}
	}
	lat := make([]float64, 240)
	for i := range lat {
		lat[i] = float64(i + 1)
	}
	if got := percentile(lat, 95); got != 228 {
		t.Errorf("p95 of 1..240 = %v, want 228 (12 samples beyond)", got)
	}
}

// The quartiles must be the ones Python's statistics.quantiles(v, n=4)
// gives, since the driver judges spreads with that rule.
func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	s := summarize([]float64{9, 1, 7, 3, 5, 2, 8, 4, 6, 10})
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 || s.Min != 1 || s.Max != 10 || s.N != 10 {
		t.Errorf("summarize(1..10) = %+v, want quartiles 2.75 / 5.5 / 8.25", s)
	}
}

func TestFastestRateAndSum(t *testing.T) {
	// Ten units in five segments of two: the value is the fastest unit,
	// the samples are each segment's fastest.
	m := fastestRate([]float64{5, 6, 9, 3, 4, 4, 8, 7, 1, 2})
	if m.Value != 9 || m.Samples.N != segments || m.Samples.Min != 2 || m.Samples.Median != 6 || m.Samples.Max != 9 {
		t.Errorf("fastestRate = %+v", m)
	}
	// With a thousand units, one lucky unit does not set the value.
	units := make([]float64, 1000)
	for i := range units {
		units[i] = float64(i % 100)
	}
	units[500] = 1e6
	if m := fastestRate(units); m.Value != 99 {
		t.Errorf("fastestRate of 1000 units = %v, want the 99th percentile 99", m.Value)
	}
	// Each step counts its fastest repetition.
	s := fastestSum([][]float64{{1, 5, 3}, {2, 4, 9}, {3, 6, 1}})
	if s.Value != 1+4+1 || s.Samples.N != 3 || s.Samples.Min != 9 || s.Samples.Max != 15 {
		t.Errorf("fastestSum = %+v", s)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 60},  // overlaps span 2: counted once
		{ID: 4, Parent: 1, Start: 90, End: 120}, // runs past its parent: clipped
		{ID: 5, Parent: 2, Start: 15, End: 25},
		{ID: 6, Parent: 0, Start: 200, End: 210}, // another root
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - 50 - 10, 2: 20, 3: 30, 4: 30, 5: 10, 6: 10}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
	if got := subtreeSelf(spans, 1); got != 40+20+30+30+10 {
		t.Errorf("subtreeSelf(1) = %d", got)
	}
	// Sequential children: self times under a span sum to its duration.
	seq := []span{{ID: 1, Start: 0, End: 90}, {ID: 2, Parent: 1, Start: 0, End: 30}, {ID: 3, Parent: 1, Start: 35, End: 90}}
	if got := subtreeSelf(seq, 1); got != 90 {
		t.Errorf("sequential subtreeSelf = %d, want 90", got)
	}
	var nilTracer *tracer
	if id := nilTracer.begin(0, "x"); id != 0 {
		t.Errorf("nil tracer began span %d", id)
	}
	nilTracer.end(0)
}

func TestDeclarationLimits(t *testing.T) {
	if err := checkDeclaration(workloads, endToEnd, perLayer); err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"a", "sat32", "serve.job_latency_p50_ms", "ext-noc", "A_b.c-9"} {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q rejected", n)
		}
	}
	for _, n := range []string{"", "a b", "p50/ms", "-x", ".x", "ünï", strings.Repeat("x", 65)} {
		if nameRE.MatchString(n) {
			t.Errorf("name %q accepted", n)
		}
	}
	many := func(n int) []metricDef {
		var out []metricDef
		for i := 0; i < n; i++ {
			out = append(out, metricDef{Name: "m" + strings.Repeat("x", i%50) + string(rune('a'+i%26)) + string(rune('a'+i/26%26)), Unit: "s", Better: "lower"})
		}
		return out
	}
	bad := []struct {
		why string
		ws  []workloadDef
		e2e []metricDef
		lay []metricDef
	}{
		{"nine workloads", append(append([]workloadDef{}, workloads...), workloadDef{"w6", "x"}, workloadDef{"w7", "x"}, workloadDef{"w8", "x"}, workloadDef{"w9", "x"}), endToEnd, perLayer},
		{"one workload", workloads[:1], endToEnd, perLayer},
		{"129 per-layer metrics", workloads, endToEnd, many(129)},
		{"no setup_s", workloads, endToEnd[:1], perLayer},
		{"bound above 0.25", workloads, []metricDef{{"setup_s", "s", "lower", 0.3}}, perLayer},
		{"name used twice", workloads, endToEnd, append([]metricDef{{Name: "setup_s", Unit: "s", Better: "lower"}}, perLayer...)},
		{"long why", []workloadDef{{"a", strings.Repeat("y", 201)}, {"b", "x"}}, endToEnd, perLayer},
	}
	for _, c := range bad {
		if err := checkDeclaration(c.ws, c.e2e, c.lay); err == nil {
			t.Errorf("%s: accepted", c.why)
		}
	}
	e2e17 := many(17)
	for i := range e2e17 {
		e2e17[i].Bound = 0.1
	}
	e2e17[0] = metricDef{"setup_s", "s", "lower", 0.1}
	if err := checkDeclaration(workloads, e2e17, perLayer); err == nil {
		t.Error("17 end-to-end metrics: accepted")
	}
}

func TestDeclarationMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if want := declaration(); !reflect.DeepEqual(file, want) {
		t.Errorf("BENCHMARK.json differs from the program's declaration; regenerate it with\n\tgo run -C bench . -declaration > BENCHMARK.json\nfile: %+v\nprogram: %+v", file, want)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
}

func TestDeclaredListsMatchProduct(t *testing.T) {
	src, tgt := registeredPolicies()
	if !reflect.DeepEqual(src, sourcePolicies) || !reflect.DeepEqual(tgt, targetPolicies) {
		t.Errorf("policy registry is %v / %v, the benchmark declares %v / %v", src, tgt, sourcePolicies, targetPolicies)
	}
	var grouped []string
	for _, g := range figGroups {
		grouped = append(grouped, g...)
	}
	a, b := append([]string{}, figures...), grouped
	sort.Strings(a)
	sort.Strings(b)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("figure groups %v do not cover the declared figures %v", b, a)
	}
	if got := len(sweepSpecs("bench")); got != 60 {
		t.Errorf("%d sweep specs, the workload is described with 60", got)
	}
}

// TestSmoke runs all five workloads at 1/50 size, untraced and traced,
// and holds the outputs to the driver's contract: every declared metric
// present, no other, nothing failed.
func TestSmoke(t *testing.T) {
	produced := map[string]bool{}
	for _, w := range workloads {
		res, err := runWorkload(w.Name, runConfig{seed: defaultSeed, smoke: true})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if res.Failed != 0 || res.Ops == 0 {
			t.Errorf("%s: ops %d, failed %d: %v", w.Name, res.Ops, res.Failed, res.Failures)
		}
		line := res.driverLine()
		if len(line.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d end-to-end metrics, want %d", w.Name, len(line.Metrics), len(endToEnd))
		}
		for _, m := range endToEnd {
			if v, ok := line.Metrics[m.Name]; !ok || v.Value <= 0 || v.Unit != m.Unit {
				t.Errorf("%s: end-to-end metric %s = %+v", w.Name, m.Name, v)
			}
		}

		res, err = runTraced(w.Name, runConfig{seed: defaultSeed, smoke: true, tr: newTracer()})
		if err != nil {
			t.Fatalf("%s traced: %v", w.Name, err)
		}
		if res.Failed != 0 {
			t.Errorf("%s traced: failed %d: %v", w.Name, res.Failed, res.Failures)
		}
		if n := len(res.driverLine().Metrics); n != len(perLayer) {
			t.Errorf("%s traced: %d per-layer metrics, want %d", w.Name, n, len(perLayer))
		}
		for k, v := range res.Layer {
			if v != 0 {
				produced[k] = true
			}
		}
		if w.Name == "sat32" {
			for _, c := range eventClasses {
				if _, ok := res.visited[c]; !ok {
					t.Errorf("event class %q is not in the snapshot", c)
				}
			}
		}
	}
	declared := map[string]bool{}
	for _, m := range perLayer {
		declared[m.Name] = true
		// Counts that are rightly zero on a healthy run.
		zero := map[string]bool{"ops_failed": true, "sim.late_wakes": true, "exp.tables_changed": true,
			"dram.row_hit_rate": true, "soc.share_err": true, "sim.visited_per_kcycle.net": true}
		if !produced[m.Name] && !zero[m.Name] {
			t.Errorf("no workload produced per-layer metric %s", m.Name)
		}
	}
	for k := range produced {
		if !declared[k] {
			t.Errorf("metric %s is produced but not declared", k)
		}
	}
}
