// Command pabstsim reproduces the tables and figures of the PABST paper's
// evaluation (HPCA 2017, Section IV). Each experiment prints the same
// rows or series the paper reports.
//
// Usage:
//
//	pabstsim [-scale quick|full] [-series | -json] [-spec name,name,...]
//	         [-policy src+tgt] [-faults preset] [-parallel n]
//	         [-cpuprofile f] [-memprofile f] <experiment>...
//	pabstsim -list
//	pabstsim -list-policies
//
// The ablation axes over the design parameters the paper leaves open
// (epoch length, the rate scale factor F, pacer burst credit, arbiter
// slack, front-end queue depth, page policy, gain inertia, per-MC
// governors) are experiments named sweep-<param> (exp.ParamSweeps):
// each row one value on the canonical 7:3 stream mix, reporting how
// well the split converged and how much throughput the system
// sustained. -list prints them in a section of their own, and "all"
// leaves them out: `pabstsim -scale quick sweep-page` runs one.
//
// -json writes each table, Table III's configuration lines included, as
// one JSON document and nothing else; -series, a text series, is
// refused with it.
//
// -policy runs every system an experiment builds under a QoS policy
// pair from the plugin registry ("src+tgt"; either half may be empty to
// keep that side; runs that name their own pair keep it — DESIGN.md,
// "Selecting a mechanism"). -list-policies prints the registry: each
// mechanism's name, kind, parameters, and paper citation.
//
// -faults names the fault preset the faults experiment runs against its
// clean arm (pabst.FaultPresets; default sat-partition). Any other value
// is refused before anything is simulated; a plan is never read from a
// file. A preset must also fit the scale's epoch: its help and -list
// name the presets each scale holds (sat-delay's 3 000-cycle lag does
// not fit quick's 2 000-cycle epoch).
//
// An experiment's independent simulations run concurrently, one per
// core by default: -parallel 0 (the default) = all cores, 1 = one at a
// time, n = at most n. It changes only wall-clock speed — every
// experiment's output is bit-identical at any setting. Peak heap is
// about cores × one machine (≈ 12 MB for the paper's 32 tiles, ≈ 90 MB
// for a 256-tile mesh); -parallel 1 bounds it.
//
// Experiments: see -list; "all" runs every one but the sweeps. table3
// and the trajectory experiments (fig5/6/8/9), which need per-epoch
// series the seam does not carry, are the bespoke list below; every
// other name is looked up among the ablation axes and in the experiment
// registry (exp.ExperimentByName), and one process-wide result cache
// dedups shared simulations, so fig10 and fig12 run their common grid
// once.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"pabst"
	"pabst/internal/exp"
)

type entry struct{ name, desc string }

// bespoke are the experiments main's switch runs itself; every other
// name belongs to the registry.
var bespoke = []entry{
	{"table3", "system configuration"},
	{"fig5", "proportional allocation, two stream classes at 7:3"},
	{"fig6", "work conservation with a periodic streamer"},
	{"fig8", "proportional distribution of excess bandwidth"},
	{"fig9", "memcached service times under co-location"},
}

// listing is -list's (and "all"'s) order: the bespoke experiments, then
// the registry's, each with its own description.
func listing() []entry {
	out := slices.Clone(bespoke)
	for _, e := range exp.Experiments() {
		out = append(out, entry{e.Name(), e.Desc()})
	}
	return out
}

// options are pabstsim's flags.
type options struct {
	scale, specs, faults, policy     string
	list, listPolicies, series, json bool
	parallel                         int
	cpuprofile, memprofile           string
}

// register defines every flag on fs, landing in o.
func (o *options) register(fs *flag.FlagSet) {
	fs.StringVar(&o.scale, "scale", "full", "experiment scale: quick or full")
	fs.BoolVar(&o.list, "list", false, "list experiments and exit")
	fs.BoolVar(&o.listPolicies, "list-policies", false, "list registered QoS policy mechanisms and exit")
	fs.BoolVar(&o.series, "series", false, "print full text time series for fig5/fig6 (not with -json)")
	fs.BoolVar(&o.json, "json", false, "emit result tables as JSON instead of text")
	fs.StringVar(&o.specs, "spec", "", "comma-separated SPEC proxy subset for fig10-12 (default: all)")
	fs.StringVar(&o.faults, "faults", "sat-partition",
		"fault preset for the faults experiment: one of "+strings.Join(pabst.FaultPresets(), ", ")+
			"; the ones each scale's epoch holds: "+strings.Join(presetFit(), "; "))
	fs.StringVar(&o.policy, "policy", "",
		"QoS mechanism `src+tgt` (or a preset name) replacing each run's mode; an empty half keeps that side, and a run that names its own pair keeps it (DESIGN.md, \"Selecting a mechanism\")")
	fs.IntVar(&o.parallel, "parallel", 0, "concurrent simulations in multi-run experiments (0 = all cores, 1 = one at a time)")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&o.memprofile, "memprofile", "", "write a heap profile to this file on exit")
}

// runScale resolves -scale and stamps the flags that reach the systems
// an experiment builds onto it: the policy override and the
// parallelism. It refuses -series with -json: a series is text.
func (o *options) runScale() (exp.Scale, error) {
	if o.series && o.json {
		return exp.Scale{}, fmt.Errorf("-series prints text series; it does not combine with -json")
	}
	sc, err := exp.ScaleByName(o.scale)
	if err != nil {
		return exp.Scale{}, err
	}
	if sc.Policy, err = pabst.ParseMode(o.policy); err != nil {
		return exp.Scale{}, err
	}
	sc.Parallel = o.parallel
	return sc, nil
}

func main() {
	var o options
	o.register(flag.CommandLine)
	flag.Parse()
	defer profiles(o.cpuprofile, o.memprofile)()

	if o.list {
		for _, e := range listing() {
			fmt.Printf("%-10s %s\n", e.name, e.desc)
		}
		fmt.Println("\nablation axes (exp.ParamSweeps; not part of all):")
		for _, e := range exp.ParamSweeps() {
			fmt.Printf("%-14s %s\n", e.Name(), e.Desc())
		}
		fmt.Println("\nfault presets each scale's epoch holds (-faults):")
		for _, line := range presetFit() {
			fmt.Println(line)
		}
		fmt.Println("\nworkload generators (pabst.Workloads; -spec takes the SPEC CPU 2006 proxies only):")
		for _, w := range pabst.Workloads() {
			fmt.Printf("%-12s %-24s %s\n", w.Name, w.Args, w.Desc)
		}
		return
	}
	if o.listPolicies {
		printPolicies()
		return
	}

	scale, err := o.runScale()
	check(err)

	workloads, err := specSubset(o.specs)
	check(err)
	if _, err := pabst.LoadFaultPlan(o.faults); err != nil {
		fatalf("-faults: %v", err)
	}

	args := flag.Args()
	if len(args) == 0 {
		fatalf("no experiment given; try -list")
	}
	if len(args) == 1 && args[0] == "all" {
		args = nil
		for _, e := range listing() {
			args = append(args, e.name)
		}
	}
	o.run(os.Stdout, scale, workloads, args)
}

// run runs the named experiments in order and writes their tables to w:
// under -json every line belongs to one JSON document, a table each.
func (o *options) run(w io.Writer, scale exp.Scale, workloads, args []string) {
	// One cache across every registry experiment in this invocation:
	// fig10 and fig12 emit the same specs, so their shared grid runs once.
	cache := exp.NewRunCache()
	runRegistry := func(e exp.Experiment) *exp.Table {
		tbl, _, _, err := exp.RunExperimentScale(context.Background(), e, scale, cache)
		check(err)
		return tbl
	}

	emit := func(tbl *exp.Table) {
		if o.json {
			b, err := tbl.JSON()
			check(err)
			fmt.Fprintln(w, string(b))
			return
		}
		fmt.Fprint(w, tbl.String())
	}

	for _, name := range args {
		start := time.Now()
		switch name {
		case "table3":
			text := exp.Table3(pabst.Default32Config()) + "\n" + exp.Table3(pabst.Scaled8Config())
			if !o.json {
				fmt.Fprint(w, text)
				break
			}
			b, err := json.MarshalIndent(struct {
				Title string   `json:"title"`
				Lines []string `json:"lines"`
			}{"Table III: system configuration", strings.Split(strings.TrimSuffix(text, "\n"), "\n")}, "", "  ")
			check(err)
			fmt.Fprintln(w, string(b))
		case "fig5":
			r, err := exp.Fig5Series(scale)
			check(err)
			tbl := r.Table("Figure 5: proportional allocation 7:3 (two 16-core stream classes)")
			tbl.Rows = append(tbl.Rows, exp.Row{
				Label:  "converged at cycle",
				Values: map[string]float64{"steady-share": float64(r.ConvergedAt)},
			})
			emit(tbl)
			if o.series {
				printSeries(w, r)
			}
		case "fig6":
			r, err := exp.Fig6(scale)
			check(err)
			emit(r.Table())
			if o.series {
				printSeries(w, r.Series)
			}
		case "fig8":
			r, err := exp.Fig8(scale)
			check(err)
			emit(r.Table())
		case "fig9":
			r, err := exp.Fig9(scale)
			check(err)
			emit(r.Table())
		default:
			e, err := registryExperiment(name, workloads, o.faults)
			if err != nil {
				fatalf("unknown experiment %q; try -list", name)
			}
			emit(runRegistry(e))
		}
		if !o.json {
			fmt.Fprintf(w, "[%s: %.1fs]\n\n", name, time.Since(start).Seconds())
		}
	}
}

// presetFit renders, one line a named scale, the fault presets whose
// plan fits that scale's epoch (exp.FaultPresetsAt).
func presetFit() []string {
	var out []string
	for _, sc := range []exp.Scale{exp.Quick(), exp.Full()} {
		out = append(out, fmt.Sprintf("%s (epoch %d): %s", sc.Name, sc.Epoch, strings.Join(exp.FaultPresetsAt(sc), ", ")))
	}
	return out
}

// specSubset parses the -spec list. Only SPEC proxies are accepted: the
// fig10-12 benches build their machines through pabst.SpecProxy, so any
// other registered workload name would fail after simulation started.
func specSubset(list string) ([]string, error) {
	if list == "" {
		return nil, nil
	}
	names := strings.Split(list, ",")
	for _, w := range names {
		if _, err := pabst.SpecProxy(w, pabst.TileRegion(0), 1); err != nil {
			return nil, fmt.Errorf("-spec: %w (have %s)", err, strings.Join(pabst.SpecNames(), ","))
		}
	}
	return names, nil
}

// registryExperiment resolves a registry-routed experiment, honoring the
// -spec workload subset (fig10/11/12 are workload-parameterized) and the
// -faults plan; a sweep-<param> name is its ablation axis, and
// everything else comes from the registry as registered.
func registryExperiment(name string, workloads []string, faultPlan string) (exp.Experiment, error) {
	for _, e := range exp.ParamSweeps() {
		if e.Name() == name {
			return e, nil
		}
	}
	if len(workloads) > 0 {
		switch name {
		case "fig10":
			return exp.NewIsolationExperiment("fig10",
				"weighted slowdown of each SPEC proxy vs a 16-core stream aggressor", workloads, false), nil
		case "fig12":
			return exp.NewIsolationExperiment("fig12",
				"memory efficiency under QoS for each SPEC proxy vs the aggressor", workloads, true), nil
		case "fig11":
			return exp.NewFig11Experiment(workloads), nil
		}
	}
	if name == "faults" {
		return exp.NewFaultsExperiment(faultPlan), nil
	}
	return exp.ExperimentByName(name)
}

// printPolicies renders the QoS policy registry: every mechanism's
// name, kind, consumed parameters, and the paper it reproduces.
func printPolicies() {
	fmt.Printf("%-9s %-7s %-56s %s\n", "name", "kind", "description [params]", "citation")
	for _, p := range pabst.Policies() {
		desc := p.Desc
		if p.Params != "" {
			desc += " [" + p.Params + "]"
		}
		fmt.Printf("%-9s %-7s %-56s %s\n", p.Name, p.Kind, desc, p.Cite)
	}
	fmt.Println("\nselect a pair as src+tgt; spellings, presets and precedence: DESIGN.md, \"Selecting a mechanism\".")
}

func printSeries(w io.Writer, r *exp.SeriesResult) {
	fmt.Fprintf(w, "%12s", "cycle")
	for _, c := range r.Classes {
		fmt.Fprintf(w, "%16s", c)
	}
	fmt.Fprintf(w, "%12s\n", "B/cyc")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%12d", p.Cycle)
		for _, s := range p.Shares {
			fmt.Fprintf(w, "%16.3f", s)
		}
		fmt.Fprintf(w, "%12.2f\n", p.BpcSum)
	}
}

// profiles starts a CPU profile (if requested) and returns the function
// that stops it and snapshots the heap (if requested). It runs via defer
// on the normal exit path; fatalf exits skip it, which is fine — a
// failed run's profile is not interesting.
func profiles(cpu, heap string) func() {
	var cf *os.File
	if cpu != "" {
		var err error
		cf, err = os.Create(cpu)
		check(err)
		check(pprof.StartCPUProfile(cf))
	}
	return func() {
		if cf != nil {
			pprof.StopCPUProfile()
			check(cf.Close())
		}
		if heap != "" {
			f, err := os.Create(heap)
			check(err)
			runtime.GC()
			check(pprof.WriteHeapProfile(f))
			check(f.Close())
		}
	}
}

func check(err error) {
	if err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pabstsim: "+format+"\n", args...)
	os.Exit(1)
}
