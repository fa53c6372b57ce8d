package exp

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"pabst"
)

// Scale sizes an experiment run. Quick fits in tests and benches; Full is
// the CLI default and runs long enough for the paper-scale epoch.
type Scale struct {
	Name    string
	Warmup  uint64 // cycles before measurement (cache fill + governor convergence)
	Measure uint64 // measured cycles
	Epoch   uint64 // PABST epoch length
	Window  uint64 // bandwidth series window

	// Parallel bounds how many independent simulations a multi-run
	// experiment executes concurrently, by ForEach's one rule: 0 (the
	// zero value) = every core (runtime.GOMAXPROCS), 1 = one at a time on
	// the caller's goroutine, n = at most n. Each run owns an isolated
	// system, so any setting produces identical results; peak heap is
	// about Parallel × one machine, and 1 is the way to bound it.
	Parallel int

	// Kernel is the differential-oracle hook (see config.System.Kernel):
	// empty runs the event kernel, "cycle" the reference loop the
	// determinism tests compare it against. Never a simulated outcome.
	Kernel string

	// Policy is the process-wide mechanism override (the -policy flag):
	// its non-empty halves replace that side of every system the
	// experiment builds, except where a RunSpec names the side itself
	// (RunSpec.pair has the precedence rule). Unlike Parallel and Kernel
	// it DOES change simulated outcomes — it is the cross-policy
	// comparison axis.
	Policy pabst.Mode
}

// Quick returns the test/bench scale (short epochs converge fast).
func Quick() Scale {
	return Scale{Name: "quick", Warmup: 100_000, Measure: 150_000, Epoch: 2000, Window: 2000}
}

// Full returns the CLI scale with the paper's 10 µs epoch.
func Full() Scale {
	return Scale{Name: "full", Warmup: 1_200_000, Measure: 1_000_000, Epoch: 20_000, Window: 10_000}
}

// Apply stamps the scale's timing parameters onto a system config. The
// kernel and policy selections travel separately as builder options
// (Options).
func (s Scale) Apply(cfg pabst.SystemConfig) pabst.SystemConfig {
	cfg.PABST.EpochCycles = s.Epoch
	cfg.BWWindow = s.Window
	return cfg
}

// Options returns the scale's kernel and policy selections as builder
// options; experiments pass them to every pabst.NewBuilder call.
func (s Scale) Options() []pabst.Option {
	return []pabst.Option{
		pabst.WithKernel(s.Kernel),
		pabst.WithPolicy(s.Policy.Source, s.Policy.Target),
	}
}

// ForEach runs fn(0)..fn(n-1) on at most parallel concurrent goroutines,
// the caller's among them. This is the one rule for run-level
// parallelism, which Scale.Parallel, RunExperimentScale and the commands'
// -parallel flag all inherit: parallel <= 0 means
// runtime.GOMAXPROCS(0) (every core), and 1 — or a single index — runs
// inline, in index order, on the caller's goroutine. The helper
// goroutines live for one call; nothing is retained between calls.
// Failures propagate promptly: after the first error no NEW index is
// started — in-flight indices still run to completion, because each
// holds a live simulation that must finish or tear down — and the first
// error is returned. Once ctx is done no new index is started either,
// and ctx.Err() is returned (unless a worker error landed first);
// cancelling an index already running is fn's job — pass a ctx-aware
// fn (e.g. one built on RunSpec.Run or System.RunContext) when long
// indices must stop mid-simulation. Callers write results into index i
// of a pre-sized slice, so output order never depends on scheduling.
func ForEach(ctx context.Context, parallel, n int, fn func(int) error) error {
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	if parallel > n {
		parallel = n
	}
	if parallel <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next     atomic.Int64
		stop     atomic.Bool
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		stop.Store(true)
	}
	work := func() {
		for !stop.Load() {
			if err := ctx.Err(); err != nil {
				fail(err)
				return
			}
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if err := fn(i); err != nil {
				fail(err)
				return
			}
		}
	}
	// The caller is one of the workers, so a call starts parallel-1
	// goroutines. They exit only after the caller has run out of indices
	// too: the caller then resumes from wg.Wait on the scheduler thread
	// that just freed a goroutine descriptor, and the next call's go
	// statement reuses it. Helpers that exit early strand descriptors on
	// other threads' free lists while this one allocates new ones, and
	// the runtime never frees a descriptor. Retained after 15 s of the
	// figure set on 2 cores: 8-17 KB with a waiting caller and early
	// exits, 4-8 KB with a working caller, 3-4 KB with this wait added
	// (a serial run retains 2 KB).
	callerDone := make(chan struct{})
	wg.Add(parallel - 1)
	for w := 1; w < parallel; w++ {
		go func() {
			defer wg.Done()
			work()
			<-callerDone
		}()
	}
	work()
	close(callerDone)
	wg.Wait()
	return firstErr
}

// Row is one line of a paper-style result table.
type Row struct {
	Label  string
	Values map[string]float64
}

// Table is a titled set of rows with shared columns.
type Table struct {
	Title   string
	Columns []string
	Rows    []Row
}

// JSON renders the table as a machine-readable document: a title plus
// one object per row keyed by column name.
func (t *Table) JSON() ([]byte, error) {
	type row struct {
		Label  string             `json:"label"`
		Values map[string]float64 `json:"values"`
	}
	doc := struct {
		Title   string   `json:"title"`
		Columns []string `json:"columns"`
		Rows    []row    `json:"rows"`
	}{Title: t.Title, Columns: t.Columns}
	for _, r := range t.Rows {
		doc.Rows = append(doc.Rows, row{Label: r.Label, Values: r.Values})
	}
	return json.MarshalIndent(doc, "", "  ")
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	fmt.Fprintf(&b, "%-28s", "")
	for _, c := range t.Columns {
		fmt.Fprintf(&b, "%14s", c)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-28s", r.Label)
		for _, c := range t.Columns {
			v, ok := r.Values[c]
			if !ok {
				fmt.Fprintf(&b, "%14s", "-")
				continue
			}
			fmt.Fprintf(&b, "%14.3f", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// paperModes is the paper's comparison order.
var paperModes = []pabst.Mode{pabst.ModeNone, pabst.ModeSourceOnly, pabst.ModeTargetOnly, pabst.ModePABST}

// modeColumns names paperModes as table columns.
func modeColumns() []string {
	cols := make([]string, len(paperModes))
	for i, m := range paperModes {
		cols[i] = m.String()
	}
	return cols
}

// attachStreams places identical read/write streamers on tiles [from,to).
func attachStreams(b *pabst.Builder, class pabst.ClassID, from, to int, write bool) {
	for i := from; i < to; i++ {
		b.Attach(i, class, pabst.Stream("stream", pabst.TileRegion(i), 128, write))
	}
}

// attachSpec places one SPEC proxy on tiles [from,to).
func attachSpec(b *pabst.Builder, class pabst.ClassID, name string, from, to int) error {
	for i := from; i < to; i++ {
		gen, err := pabst.SpecProxy(name, pabst.TileRegion(i), uint64(i)+1)
		if err != nil {
			return err
		}
		b.Attach(i, class, gen)
	}
	return nil
}
