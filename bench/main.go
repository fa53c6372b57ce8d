// Command bench is the repository's one benchmark. See README.md.
//
// The driver runs it once per workload:
//
//	go run -C bench . --workload sat32 --seed 1 --seconds 10 --trace 0
//
// and reads the last line of standard output. Without --workload it
// runs every workload, untraced and then traced, prints every metric by
// name with its unit and writes the JSON summary.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
)

// defaultSeed is the seed of an argument-less run. heldOutSeed is kept
// for confirming a claim on inputs nobody tuned against: use it only
// once a change is finished.
const (
	defaultSeed = 1
	heldOutSeed = 20170204
)

// stamp says where, on what and from which inputs a set of numbers
// came; it heads every output.
type stamp struct {
	Revision   string  `json:"revision"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Smoke      bool    `json:"smoke,omitempty"`
}

func newStamp(rc runConfig) stamp {
	rev := "unknown" // a checkout without git history
	if out, err := exec.Command("git", "-C", checkoutRoot(), "rev-parse", "--short", "HEAD").Output(); err == nil {
		rev = strings.TrimSpace(string(out))
	}
	return stamp{Revision: rev, GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: rc.seed, Seconds: rc.seconds, Smoke: rc.smoke}
}

// checkoutRoot is the nearest directory at or above the working
// directory that holds BENCHMARK.json (the working directory if none).
func checkoutRoot() string {
	wd, err := os.Getwd()
	if err != nil {
		return "."
	}
	for dir := wd; ; dir = filepath.Dir(dir) {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir
		}
		if dir == filepath.Dir(dir) {
			return wd
		}
	}
}

//go:embed golden.json
var goldenJSON []byte

// tablesChanged counts figure tables whose hash differs from the one
// stored in golden.json, taken at the same warmup and measure windows. It is informational: a
// speed-only change must leave it 0, a change of simulated behaviour
// moves it on purpose.
func tablesChanged(warmup, measure uint64, tables map[string]figTable) (int, error) {
	var golden struct {
		Warmup  uint64            `json:"warmup"`
		Measure uint64            `json:"measure"`
		Tables  map[string]string `json:"tables"`
	}
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		return 0, fmt.Errorf("golden.json: %w", err)
	}
	if golden.Warmup != warmup || golden.Measure != measure {
		return 0, fmt.Errorf("golden.json was taken at %d+%d cycles, the figure set runs at %d+%d",
			golden.Warmup, golden.Measure, warmup, measure)
	}
	changed := 0
	for f, t := range tables {
		if golden.Tables[f] != t.Hash {
			changed++
		}
	}
	return changed, nil
}

// runTraced runs a workload with spans recorded into rc.tr, then the
// isolated drivers, and fills in the metrics that need both.
func runTraced(name string, rc runConfig) (*result, error) {
	tr := rc.tr
	firstSpan, spentBefore := len(tr.spans), tr.spent
	res, err := runWorkload(name, rc)
	if err != nil {
		return nil, err
	}
	for m, spans := range runDrivers(tr, rc.seed, rc.smoke) {
		res.layerFastest(m, spans)
	}
	over, err := obsOverhead(rc.seed, rc.smoke)
	if err != nil {
		return nil, err
	}
	res.Layer["obs.run_overhead_frac"], res.LayerSamples["obs.run_overhead_frac"] = over.Value, over.Samples

	// est_share: a driver's ns per operation times the operations the
	// timed section made of that kind, over its wall time. Only sim,
	// dram and cpu have a count Snapshot exposes.
	if res.visited != nil {
		wallNs := res.TimedWall * 1e9
		var all float64
		for _, v := range res.visited {
			all += v
		}
		sim := res.Layer["sim.ns_per_dispatch"] * all / wallNs
		dram := res.Layer["dram.ns_per_tick_busy"] * res.visited["mc"] / wallNs
		cpu := res.Layer["cpu.ns_per_tick_busy"] * res.visited["tile"] / wallNs
		res.Layer["sim.est_share"], res.Layer["dram.est_share"], res.Layer["cpu.est_share"] = sim, dram, cpu
		res.Layer["soc.residual_share"] = 1 - sim - dram - cpu
	}

	for k, v := range res.Simulated {
		if strings.HasPrefix(k, "soc.") {
			res.Layer[k] = v
		}
	}
	for _, s := range tr.spans[firstSpan:] {
		if s.Name == "timed" {
			res.Layer["trace.self_sum_frac"] = float64(subtreeSelf(tr.spans, s.ID)) / float64(s.End-s.Start)
		}
	}
	res.Layer["trace.spans"] = float64(len(tr.spans) - firstSpan)
	res.Layer["trace.overhead_frac"] = (tr.spent - spentBefore).Seconds() / res.TimedWall
	res.check(res.Layer["trace.self_sum_frac"] > 0.98 && res.Layer["trace.self_sum_frac"] < 1.02,
		"self times under the timed span sum to %.4f of it", res.Layer["trace.self_sum_frac"])
	res.Layer["ops_total"], res.Layer["ops_failed"] = float64(res.Ops), float64(res.Failed)
	return res, nil
}

// driverLine is the one JSON object the driver reads.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) driverLine() driverLine {
	line := driverLine{Correct: r.Failed == 0, Attempted: r.Ops, Failed: r.Failed, Metrics: map[string]driverValue{}}
	if r.Traced {
		for _, m := range perLayer {
			line.Metrics[m.Name] = driverValue{r.Layer[m.Name], m.Unit}
		}
	} else {
		for _, m := range endToEnd {
			line.Metrics[m.Name] = driverValue{r.EndToEnd[m.Name].Value, m.Unit}
		}
	}
	return line
}

// print writes every metric of the result by name, with its unit and,
// for medians, the samples beside it.
func (r *result) print(w *os.File) {
	fmt.Fprintf(w, "== %s (traced=%v): %d units of work in %.2f s of timed wall, ops %d, failed %d\n",
		r.Workload, r.Traced, r.Units, r.TimedWall, r.Ops, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "   FAILED: %s\n", f)
	}
	show := func(kind, name, unit string, v float64, s summary) {
		fmt.Fprintf(w, "   %-10s %-38s %14.6g %-7s", kind, name, v, unit)
		if s.N > 1 {
			fmt.Fprintf(w, " n=%d min %.6g q1 %.6g median %.6g q3 %.6g max %.6g", s.N, s.Min, s.Q1, s.Median, s.Q3, s.Max)
		}
		fmt.Fprintln(w)
	}
	for _, m := range endToEnd {
		v := r.EndToEnd[m.Name]
		show("host", m.Name, m.Unit, v.Value, v.Samples)
	}
	var sim []string
	for k := range r.Simulated {
		sim = append(sim, k)
	}
	sort.Strings(sim)
	for _, k := range sim {
		show("simulated", k, "", r.Simulated[k], summary{})
	}
	for _, f := range figures {
		if h, ok := r.Tables[f]; ok {
			fmt.Fprintf(w, "   table      %-38s %s\n", f, h)
		}
	}
	if !r.Traced {
		return
	}
	for _, m := range perLayer {
		show("layer", m.Name, m.Unit, r.Layer[m.Name], r.LayerSamples[m.Name])
	}
}

// compareSets checks a second set of runs of the same code against the
// first: every end-to-end metric within its own bound, every simulated
// output equal.
func compareSets(a, b []*result) (failures []string) {
	for i := range a {
		for _, m := range endToEnd {
			x, y := a[i].EndToEnd[m.Name].Value, b[i].EndToEnd[m.Name].Value
			if d := max(worseBy(m.Better, x, y), worseBy(m.Better, y, x)); d > m.Bound {
				failures = append(failures, fmt.Sprintf("%s %s: %.6g vs %.6g differ by %.1f%%, bound %.0f%%",
					a[i].Workload, m.Name, x, y, 100*d, 100*m.Bound))
			}
		}
		for k, x := range a[i].Simulated {
			if y := b[i].Simulated[k]; x != y {
				failures = append(failures, fmt.Sprintf("%s %s: simulated %v vs %v", a[i].Workload, k, x, y))
			}
		}
	}
	return failures
}

func main() {
	var (
		workload = flag.String("workload", "", "run one workload and end with the driver's JSON line (default: all, as a report)")
		seed     = flag.Uint64("seed", defaultSeed, fmt.Sprintf("input seed; %d is held out for confirming a finished change", heldOutSeed))
		seconds  = flag.Float64("seconds", runSeconds, "how long each timed section measures")
		trace    = flag.Int("trace", 0, "1: the traced run with spans and per-layer metrics; 0: the untraced end-to-end run")
		traceOut = flag.String("trace-out", "", "write the traced run's spans to this file (a report writes one per workload, named after it)")
		out      = flag.String("out", "", "write the report's JSON summary to this file (default: standard output)")
		repeat   = flag.Int("repeat", 1, "run this many untraced sets and fail if two sets disagree beyond the metrics' bounds")
		smoke    = flag.Bool("smoke", false, "run everything at 1/50 size")
		profile  = flag.String("cpuprofile", "", "write a CPU profile of the one workload's run to this file")
		declare  = flag.Bool("declaration", false, "print BENCHMARK.json as this program declares it and exit")
		full     = flag.Bool("result", false, "print the whole result as one more JSON line (the report reads it)")
	)
	flag.Parse()
	if err := checkDeclaration(workloads, endToEnd, perLayer); err != nil {
		fatal(err)
	}
	if *declare {
		b, err := json.MarshalIndent(declaration(), "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(b))
		return
	}
	rc := runConfig{seed: *seed, seconds: *seconds, smoke: *smoke}
	if rc.smoke {
		rc.seconds = 0
	}
	st := newStamp(rc)
	stampLine, err := json.Marshal(st)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("stamp %s\n", stampLine)

	if *workload == "" {
		if !report(rc, st, *repeat, *traceOut, *out) {
			os.Exit(1)
		}
		return
	}
	if *profile != "" {
		f, err := os.Create(*profile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	run := runWorkload
	if *trace != 0 {
		rc.tr = newTracer()
		run = runTraced
	}
	res, err := run(*workload, rc)
	if err != nil {
		fatal(err)
	}
	if rc.tr != nil && *traceOut != "" {
		if err := rc.tr.write(*traceOut, st); err != nil {
			fatal(err)
		}
	}
	res.print(os.Stdout)
	if *full {
		b, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("result %s\n", b)
	}
	line, err := json.Marshal(res.driverLine())
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// runChild runs one workload the way the driver does, in a process of
// its own, so that no run inherits another's heap. It passes the child's
// printed metrics through and returns its result.
func runChild(name string, rc runConfig, traced bool, traceOut string) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"--workload", name, "--seed", fmt.Sprint(rc.seed), "--seconds", fmt.Sprint(rc.seconds), "-result"}
	if traced {
		args = append(args, "--trace", "1")
		if traceOut != "" {
			ext := filepath.Ext(traceOut)
			args = append(args, "-trace-out", strings.TrimSuffix(traceOut, ext)+"."+name+ext)
		}
	}
	if rc.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	outBytes, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	var res *result
	for _, line := range strings.Split(string(outBytes), "\n") {
		switch {
		case strings.HasPrefix(line, "result "):
			res = new(result)
			if err := json.Unmarshal([]byte(line[len("result "):]), res); err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
		case strings.HasPrefix(line, "=="), strings.HasPrefix(line, "   "):
			fmt.Println(line)
		}
	}
	if res == nil {
		return nil, fmt.Errorf("%s: the run printed no result", name)
	}
	return res, nil
}

// report runs every workload: repeat untraced sets, then one traced
// set, and writes the summary. It reports whether everything held.
func report(rc runConfig, st stamp, repeat int, traceOut, out string) bool {
	ok := true
	doc := struct {
		Stamp    stamp       `json:"stamp"`
		Sets     [][]*result `json:"untraced_sets"`
		Traced   []*result   `json:"traced"`
		Compared []string    `json:"set_disagreements"`
	}{Stamp: st, Compared: []string{}}
	for set := 0; set < repeat; set++ {
		var results []*result
		for _, w := range workloads {
			res, err := runChild(w.Name, rc, false, "")
			if err != nil {
				fatal(err)
			}
			ok = ok && res.Failed == 0
			results = append(results, res)
		}
		doc.Sets = append(doc.Sets, results)
	}
	for set := 1; set < repeat; set++ {
		for _, f := range compareSets(doc.Sets[0], doc.Sets[set]) {
			fmt.Printf("SETS DISAGREE: %s\n", f)
			doc.Compared = append(doc.Compared, f)
			ok = false
		}
	}
	for _, w := range workloads {
		res, err := runChild(w.Name, rc, true, traceOut)
		if err != nil {
			fatal(err)
		}
		ok = ok && res.Failed == 0
		doc.Traced = append(doc.Traced, res)
	}
	// The tracing overhead, measured: traced against untraced rate.
	for i, res := range doc.Traced {
		base := doc.Sets[0][i].EndToEnd["work_per_s"].Value
		fmt.Printf("%-8s traced work_per_s differs from untraced by %+.1f%%\n", res.Workload, 100*(res.EndToEnd["work_per_s"].Value/base-1))
	}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		fatal(err)
	}
	if out == "" {
		fmt.Println(string(b))
	} else if err := os.WriteFile(out, b, 0o644); err != nil {
		fatal(err)
	}
	return ok
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
