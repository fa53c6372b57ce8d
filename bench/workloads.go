package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"
)

// runConfig is one run's arguments. The program under test sees only
// what the seed generates: region offsets, generator seeds, burst gaps,
// figure-group order and job order.
type runConfig struct {
	seed    uint64
	seconds float64 // how long the timed section measures
	smoke   bool    // every cycle and call count at 1/50
	tr      *tracer // nil: the untraced run that yields the end-to-end numbers
}

func (rc runConfig) div() uint64 {
	if rc.smoke {
		return 50
	}
	return 1
}

// setupReps is how often a run sets up: before the timed section (the
// last of these feeds it) and again after it, so that one burst of
// interference cannot cover every repetition. setup_s counts each
// step's fastest repetition.
func (rc runConfig) setupReps() (before, after int) {
	if rc.smoke {
		return 1, 1
	}
	return 2, 3
}

// cheapSetupReps is setupReps for a set-up of a tenth of a second, which
// affords more repetitions.
func (rc runConfig) cheapSetupReps() (before, after int) {
	before, after = rc.setupReps()
	return before, 2 * after
}

const (
	// segments is how many equal consecutive segments a timed section
	// is cut into.
	segments = 5
	// prefixCycles is the cold prefix replayed under both kernels.
	prefixCycles = 200_000
	// snapshotEvery is how many run chunks of a traced machine workload
	// share one Snapshot of counts.
	snapshotEvery = 16
)

// measured is one reported number with the samples behind it.
type measured struct {
	Value   float64 `json:"value"`
	Samples summary `json:"samples"`
}

// once is a quantity read a single time (a heap size).
func once(v float64) measured {
	return measured{v, summary{N: 1, Min: v, Q1: v, Median: v, Q3: v, Max: v}}
}

// How host timings are reduced. This host is shared: interference only
// ever slows the program, by up to 1.6x, in bursts that last seconds and
// come and go over minutes, so the median of a ten-second run moves by
// 25% between back-to-back runs of the same binary while its fastest
// unit of work moves by 2-6% (README.md has the measurements). Every
// host timing is therefore cut into equal units of work, the reported
// value is what the fastest repetition of each unit took, and the
// spread of the slower ones is printed beside it, never a single shot.

// fastestRate reduces the rates of consecutive equal units of work (work
// per second each) to the 99th-percentile unit — the fastest one when
// there are fewer than a hundred; one lucky unit among a thousand does
// not set the value. The samples are the same figure for each of the
// five equal segments of the section, which show how much of the run was
// disturbed.
func fastestRate(units []float64) measured {
	per := len(units) / segments
	if per == 0 {
		return measured{percentile(units, 99), summarize(units)}
	}
	var segs []float64
	for s := 0; s < segments; s++ {
		segs = append(segs, percentile(units[s*per:(s+1)*per], 99))
	}
	return measured{percentile(units, 99), summarize(segs)}
}

// fastestSum reduces repetitions of the same sequence of steps, timed
// step by step: each step counts its fastest repetition, and the value
// is their sum. The samples are the whole repetitions.
func fastestSum(reps [][]float64) measured {
	var sum float64
	var whole []float64
	for step := range reps[0] {
		best := math.Inf(1)
		for _, r := range reps {
			best = min(best, r[step])
		}
		sum += best
	}
	for _, r := range reps {
		var t float64
		for _, v := range r {
			t += v
		}
		whole = append(whole, t)
	}
	return measured{sum, summarize(whole)}
}

// rate turns the time work units took into units per second.
func (m measured) rate(work float64) measured {
	s := m.Samples
	return measured{work / m.Value, summary{N: s.N, Min: work / s.Max, Q1: work / s.Q3, Median: work / s.Median, Q3: work / s.Q1, Max: work / s.Min}}
}

// result is what one run of one workload produced.
type result struct {
	Workload  string              `json:"workload"`
	Traced    bool                `json:"traced"`
	TimedWall float64             `json:"timed_wall_s"`
	Units     int                 `json:"units"` // equal units of work in the timed section
	EndToEnd  map[string]measured `json:"end_to_end"`
	// Simulated outputs repeat exactly for a fixed seed.
	Simulated map[string]float64 `json:"simulated"`
	// Layer holds the per-layer metrics; LayerSamples the sample
	// summaries of those that are medians.
	Layer        map[string]float64 `json:"per_layer,omitempty"`
	LayerSamples map[string]summary `json:"per_layer_samples,omitempty"`
	Ops          int                `json:"ops_total"`
	Failed       int                `json:"ops_failed"`
	Failures     []string           `json:"failures,omitempty"`
	// Tables are the figure tables' hashes (figs only).
	Tables map[string]string `json:"tables,omitempty"`

	visited map[string]float64 // timed-section dispatches per event class
}

func newResult(name string, rc runConfig) *result {
	return &result{Workload: name, Traced: rc.tr != nil, EndToEnd: map[string]measured{},
		Simulated: map[string]float64{}, Layer: map[string]float64{}, LayerSamples: map[string]summary{}}
}

// check counts one output check as an op and records it when it fails.
func (r *result) check(ok bool, format string, args ...any) {
	r.Ops++
	if !ok {
		r.Failed++
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// layerMedian reports the median of samples (latencies of many jobs).
func (r *result) layerMedian(name string, samples []float64) {
	r.LayerSamples[name] = summarize(samples)
	r.Layer[name] = r.LayerSamples[name].Median
}

// layerFastest reports the fastest of a few repetitions of one timing.
func (r *result) layerFastest(name string, reps []float64) {
	r.LayerSamples[name] = summarize(reps)
	r.Layer[name] = r.LayerSamples[name].Min
}

// liveHeapMB is HeapAlloc after a forced collection.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

func runWorkload(name string, rc runConfig) (*result, error) {
	if _, ok := machineKinds[name]; ok {
		return runMachine(name, rc)
	}
	switch name {
	case "figs":
		return runFigs(rc)
	case "sweep":
		return runSweep(rc)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// ------------------------------------------------ sat32, mix32, idle256

func genTileInputs(seed uint64, tiles int) []tileInput {
	rng := rand.New(rand.NewSource(int64(seed)))
	in := make([]tileInput, tiles)
	for i := range in {
		in[i] = tileInput{
			Offset: uint64(rng.Intn(1<<15)) * 4096, // inside the lower half of the tile's window
			Seed:   rng.Uint64() | 1,
			Gap:    15_000 + rng.Intn(10_001),
		}
	}
	return in
}

func countsDelta(a, b machineCounts) map[string]float64 {
	d := map[string]float64{
		"cycles": float64(b.Cycle - a.Cycle), "epochs": float64(b.Epochs - a.Epochs),
		"skipped": float64(b.Skipped - a.Skipped), "reads": float64(b.Reads - a.Reads),
		"writes": float64(b.Writes - a.Writes), "row_hits": float64(b.RowHits - a.RowHits),
	}
	for c, v := range b.Visited {
		d["visited."+c] = float64(v - a.Visited[c])
	}
	return d
}

func runMachine(name string, rc runConfig) (*result, error) {
	kind, div, tr := machineKinds[name], rc.div(), rc.tr
	warm, chunk, prefix := kind.warmup/div, kind.chunk/div, uint64(prefixCycles)/div
	statAt := int(kind.statAt / kind.chunk) // in chunks, so the smoke pass reads at the same point
	in := genTileInputs(rc.seed, kind.tiles)
	res := newResult(name, rc)
	root := tr.begin(0, "workload:"+name)

	// Set-up: build, then the simulated warmup in chunks, so each step
	// can count its fastest repetition.
	var setups [][]float64 // per repetition: build, then each warmup chunk, in s
	setup := func() (*machine, error) {
		sp := tr.begin(root, "setup")
		id := tr.begin(sp, "build")
		t0 := time.Now()
		m, err := kind.build(in, "event", nil)
		if err != nil {
			return nil, err
		}
		steps := []float64{time.Since(t0).Seconds()}
		tr.end(id)
		id = tr.begin(sp, "warmup")
		for done := uint64(0); done < warm; done += chunk {
			t0 = time.Now()
			m.run(min(chunk, warm-done))
			steps = append(steps, time.Since(t0).Seconds())
		}
		m.resetStats()
		tr.end(id)
		tr.end(sp)
		setups = append(setups, steps)
		return m, nil
	}
	setupsBefore, setupsAfter := rc.setupReps()
	var m *machine
	for i := 0; i < setupsBefore; i++ {
		if m != nil {
			m.close()
		}
		var err error
		if m, err = setup(); err != nil {
			return nil, err
		}
	}
	defer m.close()

	// Timed section: equal Run chunks until the time is up and the
	// simulated outputs have been read.
	var (
		before, after runtime.MemStats
		first, prev   machineCounts
		speeds        []float64
		stat          simStats
	)
	if tr != nil {
		first = m.counts()
		prev = first
		runtime.ReadMemStats(&before)
	}
	timed := tr.begin(root, "timed")
	start := time.Now()
	for i := 1; ; i++ {
		id := tr.begin(timed, "run")
		t0 := time.Now()
		m.run(chunk)
		d := time.Since(t0)
		tr.end(id)
		speeds = append(speeds, float64(chunk)/1e3/d.Seconds())
		if tr != nil && i%snapshotEvery == 0 {
			t0 = time.Now()
			sid := tr.begin(timed, "snapshot")
			cur := m.counts()
			tr.end(sid)
			tr.count(sid, countsDelta(prev, cur))
			prev = cur
			tr.spent += time.Since(t0)
		}
		if i == statAt {
			stat = m.simStats()
		}
		if i >= statAt && i >= segments && time.Since(start).Seconds() >= rc.seconds {
			break
		}
	}
	res.TimedWall = time.Since(start).Seconds()
	tr.end(timed)
	res.Units = len(speeds)
	res.Ops += len(speeds)
	res.EndToEnd["work_per_s"] = fastestRate(speeds)
	res.EndToEnd["live_heap_mb"] = once(liveHeapMB())

	res.Simulated["soc.hi_share"] = stat.HiShare
	res.Simulated["soc.share_err"] = math.Abs(stat.HiShare - stat.Entitled)
	res.Simulated["soc.p99_hi_cycles"] = stat.P99Hi
	res.Simulated["soc.bus_util"] = stat.BusUtil

	if tr != nil {
		runtime.ReadMemStats(&after)
		last := m.counts()
		d := countsDelta(first, last)
		kcycles := d["cycles"] / 1e3
		res.visited = map[string]float64{}
		for _, c := range eventClasses {
			res.visited[c] = d["visited."+c]
			res.Layer["sim.visited_per_kcycle."+c] = d["visited."+c] / kcycles
		}
		res.Layer["sim.skipped_frac"] = d["skipped"] / d["cycles"]
		res.Layer["sim.late_wakes"] = float64(last.LateWakes)
		if d["reads"] > 0 {
			res.Layer["dram.row_hit_rate"] = d["row_hits"] / d["reads"]
		}
		res.Layer["soc.host_ns_per_mem_req"] = res.TimedWall * 1e9 / (d["reads"] + d["writes"])
		res.Layer["soc.allocs_per_kcycle"] = float64(after.Mallocs-before.Mallocs) / kcycles
		res.Layer["soc.run_ns_per_cycle"] = 1e6 / res.EndToEnd["work_per_s"].Value
		if err := traceMachineState(tr, root, m, res); err != nil {
			return nil, err
		}
	}

	for i := 0; i < setupsAfter; i++ {
		again, err := setup()
		if err != nil {
			return nil, err
		}
		again.close()
	}
	res.EndToEnd["setup_s"] = fastestSum(setups)
	if tr != nil {
		var builds []float64
		for _, steps := range setups {
			builds = append(builds, steps[0]*1e3)
		}
		res.layerFastest("soc.build_ms", builds)
		res.Layer["soc.warmup_s"] = res.EndToEnd["setup_s"].Value - res.Layer["soc.build_ms"]/1e3
	}

	// Output checks: the same cold prefix under the cycle and the event
	// kernel must give one result, and no wake may arrive late.
	id := tr.begin(root, "check")
	var prints []string
	for _, kernel := range []string{"cycle", "event"} {
		p, err := kind.build(in, kernel, nil)
		if err != nil {
			return nil, err
		}
		p.run(prefix)
		prints = append(prints, p.fingerprint())
		res.check(p.counts().LateWakes == 0, "%s kernel: late wakes in the %d-cycle prefix", kernel, prefix)
		p.close()
	}
	tr.end(id)
	res.check(prints[0] == prints[1], "cycle and event kernels disagree after %d cycles: %.12s vs %.12s", prefix, prints[0], prints[1])
	res.check(m.counts().LateWakes == 0, "late wakes in the timed machine")
	tr.end(root)
	return res, nil
}

// traceMachineState times the state operations a sweep job pays around
// its simulation: snapshot, checkpoint save and restore.
func traceMachineState(tr *tracer, root int, m *machine, res *result) error {
	var snaps []float64
	for i := 0; i < segments; i++ {
		id := tr.begin(root, "snapshot")
		t0 := time.Now()
		m.counts()
		snaps = append(snaps, float64(time.Since(t0).Nanoseconds())/1e3)
		tr.end(id)
	}
	res.layerFastest("soc.snapshot_us", snaps)

	id := tr.begin(root, "checkpoint")
	t0 := time.Now()
	ckpt, err := m.checkpoint()
	res.Layer["ckpt.save_ms"] = time.Since(t0).Seconds() * 1e3
	tr.end(id)
	tr.count(id, map[string]float64{"bytes": float64(len(ckpt))})
	if err != nil {
		return err
	}
	res.Layer["ckpt.bytes"] = float64(len(ckpt))

	id = tr.begin(root, "restore")
	t0 = time.Now()
	r, err := restoreMachine(ckpt)
	res.Layer["ckpt.restore_ms"] = time.Since(t0).Seconds() * 1e3
	tr.end(id)
	if err != nil {
		return err
	}
	r.close()
	return nil
}

// obsOverhead alternates sat32 chunks with probes off and on and
// returns the slowdown of turning them on: the fastest chunk of each
// side, compared. The pairs' own ratios are the samples.
func obsOverhead(seed uint64, smoke bool) (measured, error) {
	kind := machineKinds["sat32"]
	div := uint64(1)
	if smoke {
		div = 50
	}
	in := genTileInputs(seed, kind.tiles)
	off, err := kind.build(in, "event", nil)
	if err != nil {
		return measured{}, err
	}
	defer off.close()
	on, err := kind.build(in, "event", newRingObserver())
	if err != nil {
		return measured{}, err
	}
	defer on.close()
	off.warmup(100_000 / div)
	on.warmup(100_000 / div)
	var ratios, offs, ons []float64
	for i := 0; i < 4*segments; i++ {
		t0 := time.Now()
		off.run(kind.chunk / div)
		t1 := time.Now()
		on.run(kind.chunk / div)
		t2 := time.Now()
		offs, ons = append(offs, t1.Sub(t0).Seconds()), append(ons, t2.Sub(t1).Seconds())
		ratios = append(ratios, ons[i]/offs[i]-1)
	}
	return measured{slices.Min(ons)/slices.Min(offs) - 1, summarize(ratios)}, nil
}

// ------------------------------------------------------------------ figs

// figGroups are the figures whose relative order matters to the shared
// cache (fig7 reuses fig1's runs, fig12 all of fig10's, faults the clean
// arm of ext-noc); the seed orders the groups. Figure 6 is left out: its
// run length is a fixed 200 epochs whatever the scale, 40% of a pass on
// its own; ext-static runs the same periodic mix through the registry
// and adds the static source policy, which no other figure selects.
var figGroups = [][]string{
	{"fig1", "fig7"}, {"fig5"}, {"fig8"}, {"fig9"}, {"fig10", "fig12", "fig11"}, {"ext-static"}, {"ext-noc", "faults"},
}

// Figure-set scale: the quick scale's 2000-cycle epoch with warmup and
// measure windows of ten epochs each, so one pass of the set takes a few
// seconds and a timed section holds several.
const (
	figWarmup  = 20_000
	figMeasure = 20_000
	minPasses  = 3
)

func figureOrder(seed uint64) []string {
	rng := rand.New(rand.NewSource(int64(seed)))
	var order []string
	for _, g := range rng.Perm(len(figGroups)) {
		order = append(order, figGroups[g]...)
	}
	return order
}

func runFigs(rc runConfig) (*result, error) {
	tr := rc.tr
	sc := benchScale(figWarmup, figMeasure, rc.div())
	order := figureOrder(rc.seed)
	ctx := context.Background()
	res := newResult("figs", rc)
	root := tr.begin(0, "workload:figs")

	// Set-up: resolve the scale and produce one figure, so the heap and
	// the code paths are warm before the timed passes.
	var setups [][]float64
	setup := func() error {
		id := tr.begin(root, "setup")
		t0 := time.Now()
		_, _, err := runFigure(ctx, "fig5", sc, newRunCache())
		setups = append(setups, []float64{time.Since(t0).Seconds()})
		tr.end(id)
		return err
	}
	setupsBefore, setupsAfter := rc.cheapSetupReps()
	for i := 0; i < setupsBefore; i++ {
		if err := setup(); err != nil {
			return nil, err
		}
	}

	var (
		passes     []float64
		figTimes   = map[string][]float64{}
		tables     = map[string]figTable{}
		asked, ran int
	)
	timed := tr.begin(root, "timed")
	start := time.Now()
	for pass := 1; ; pass++ {
		pid := tr.begin(timed, "pass")
		cache := newRunCache()
		asked = 0
		t0 := time.Now()
		for _, f := range order {
			id := tr.begin(pid, "figure:"+f)
			tf := time.Now()
			tbl, specs, err := runFigure(ctx, f, sc, cache)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", f, err)
			}
			figTimes[f] = append(figTimes[f], time.Since(tf).Seconds())
			tr.end(id)
			tr.count(id, map[string]float64{"specs": float64(specs)})
			asked += specs
			if pass == 1 {
				tables[f] = tbl
			} else {
				res.check(tbl.Hash == tables[f].Hash, "%s: pass %d printed a different table than pass 1", f, pass)
			}
		}
		passes = append(passes, time.Since(t0).Seconds())
		ran = cache.Len()
		tr.end(pid)
		if rc.smoke || pass >= minPasses && time.Since(start).Seconds() >= rc.seconds {
			break
		}
	}
	res.TimedWall = time.Since(start).Seconds()
	tr.end(timed)
	res.Units = len(passes)
	res.Ops += len(passes) * len(order)

	// The steps of a pass are its figures: the set's time is the sum of
	// each figure's fastest pass.
	reps := make([][]float64, len(passes))
	for _, f := range figures {
		res.layerFastest("exp.fig_s."+f, figTimes[f])
		for p := range reps {
			reps[p] = append(reps[p], figTimes[f][p])
		}
	}
	set := fastestSum(reps)
	res.EndToEnd["work_per_s"] = set.rate(1)
	res.EndToEnd["live_heap_mb"] = once(liveHeapMB())
	runtime.KeepAlive(tables)
	for i := 0; i < setupsAfter; i++ {
		if err := setup(); err != nil {
			return nil, err
		}
	}
	res.EndToEnd["setup_s"] = fastestSum(setups)

	res.Layer["exp.wall_s"], res.LayerSamples["exp.wall_s"] = set.Value, set.Samples
	res.Layer["exp.runs"] = float64(ran)
	res.Layer["exp.cache_hit_frac"] = 1 - float64(ran)/float64(asked)

	// The paper's qualitative claims, and the stored table hashes. The
	// claims need the governors converged, so the smoke pass skips them.
	if !rc.smoke {
		checkClaims(res, tables)
		changed, err := tablesChanged(figWarmup, figMeasure, tables)
		if err != nil {
			return nil, err
		}
		res.Layer["exp.tables_changed"] = float64(changed)
		res.Simulated["exp.tables_changed"] = float64(changed)
	}
	res.Simulated["exp.fig5_hi_share"] = tables["fig5"].Rows["70%-class"]["steady-share"]
	res.Tables = map[string]string{}
	for f, t := range tables {
		res.Tables[f] = t.Hash
	}
	tr.end(root)
	return res, nil
}

// checkClaims asserts the figure set still says what the paper says:
// the 7:3 split of Figure 5, and in Figures 1 and 7 that PABST does as
// well as the better single-sided regulator on each mix (source-only;
// EXPERIMENTS.md has the two tie within noise on the chaser mix) and far
// better than target-only.
func checkClaims(res *result, tables map[string]figTable) {
	share := tables["fig5"].Rows["70%-class"]["steady-share"]
	res.check(math.Abs(share-0.70) <= 0.02, "fig5: steady share %.4f is not within 0.02 of 0.70", share)
	for _, mix := range []string{"stream+stream", "chaser+stream"} {
		err := func(fig, mode string) float64 { return tables[fig].Rows[mix+" / "+mode]["err-%"] }
		res.check(err("fig7", "pabst") < err("fig7", "target-only")/2,
			"fig7 %s: PABST error %.2f%% is not below half of target-only's %.2f%%", mix, err("fig7", "pabst"), err("fig7", "target-only"))
		res.check(err("fig7", "pabst") <= err("fig7", "source-only")+2.5,
			"fig7 %s: PABST error %.2f%% is more than 2.5 points above source-only's %.2f%%", mix, err("fig7", "pabst"), err("fig7", "source-only"))
		for _, single := range []string{"source-only", "target-only"} {
			res.check(err("fig1", single) == err("fig7", single), "%s / %s: fig1 and fig7 disagree on a shared run", mix, single)
		}
	}
}

// ----------------------------------------------------------------- sweep

const (
	sweepWarmup    = 20_000
	sweepMeasure   = 20_000
	sweepClients   = 4 // jobs outstanding in the closed loop
	sweepPoll      = 10 * time.Millisecond
	sweepRounds    = 3 // fewest rounds of a timed section
	sweepDirectRun = 4 // specs also run directly, without the service
)

// restClient is the sweep's one client on one keep-alive connection.
type restClient struct {
	http *http.Client
	url  string
}

func newRESTClient(url string) *restClient {
	return &restClient{url: url, http: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		Timeout:   30 * time.Second,
	}}
}

func (c *restClient) do(method, path string, body []byte, want int) (jobStatus, error) {
	req, err := http.NewRequest(method, c.url+path, bytes.NewReader(body))
	if err != nil {
		return jobStatus{}, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return jobStatus{}, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return jobStatus{}, err
	}
	if resp.StatusCode != want {
		return jobStatus{}, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	return parseJobStatus(raw)
}

func (c *restClient) submit(spec jobSpec) (jobStatus, error) {
	body, err := submitBody(spec)
	if err != nil {
		return jobStatus{}, err
	}
	return c.do(http.MethodPost, "/jobs", body, http.StatusAccepted)
}

func (c *restClient) get(id string) (jobStatus, error) {
	return c.do(http.MethodGet, "/jobs/"+id, nil, http.StatusOK)
}

// wait polls until the job reaches a terminal state.
func (c *restClient) wait(id string) error {
	for {
		st, err := c.get(id)
		if err != nil || st.Terminal {
			return err
		}
		time.Sleep(sweepPoll)
	}
}

// scratchDir makes a fresh directory under .bench_build at the root of
// the checkout (the directory that holds BENCHMARK.json).
func scratchDir(pattern string) (string, error) {
	base := filepath.Join(checkoutRoot(), ".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, pattern)
}

// sweepSession is one service with its state directory and client.
type sweepSession struct {
	srv    *sweepServer
	client *restClient
	dir    string
}

// openSweep makes a fresh state directory, starts the service and its
// listener, and runs one job per worker so both have run.
func openSweep(sc simScale, primers []jobSpec) (*sweepSession, error) {
	dir, err := scratchDir("sweep-*")
	if err != nil {
		return nil, err
	}
	srv, err := startSweepServer(dir, sc)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s := &sweepSession{srv: srv, client: newRESTClient(srv.url), dir: dir}
	var ids []string
	for _, p := range primers {
		st, err := s.client.submit(p)
		if err != nil {
			s.close()
			return nil, err
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		if err := s.client.wait(id); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

// close drains and stops the service and removes its directory.
func (s *sweepSession) close() (drain time.Duration, err error) {
	drain, err = s.srv.stop()
	s.client.http.CloseIdleConnections()
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return drain, err
}

// flight is one job between submission and its terminal state.
type flight struct {
	id       string
	spec     jobSpec
	accepted time.Time
}

// sweepPlan is the job list the seed generates: one order of the
// distinct specs, submitted round after round, so the n-th block of
// completions of one round repeats the n-th block of another. The specs
// of the slack group take a new slack value each round — simulating them
// costs the same, but the warm store has never seen their machine, so
// every round after the first still pays a share of cold warmups and
// checkpoint saves beside the warm starts.
type sweepPlan struct {
	specs []jobSpec
	order []int // spec indices, the same every round
	next  int   // jobs handed out so far
}

func newSweepPlan(specs []jobSpec, roundJobs int, rng *rand.Rand) *sweepPlan {
	return &sweepPlan{specs: specs, order: rng.Perm(len(specs))[:roundJobs]}
}

func (p *sweepPlan) roundJobs() int { return len(p.order) }

// take returns the next job.
func (p *sweepPlan) take() jobSpec {
	round, at := p.next/len(p.order), p.next%len(p.order)
	p.next++
	spec := p.specs[p.order[at]]
	if v, ok := spec.Params["slack"]; ok {
		spec.Params = map[string]uint64{"slack": v + uint64(round)}
	}
	return spec
}

func runSweep(rc runConfig) (*result, error) {
	tr := rc.tr
	sc := benchScale(sweepWarmup, sweepMeasure, rc.div())
	specs := sweepSpecs(sc.Name)
	rng := rand.New(rand.NewSource(int64(rc.seed)))
	roundJobs := len(specs)
	if rc.smoke {
		roundJobs = 12
	}
	plan := newSweepPlan(specs, roundJobs, rng)
	primers := []jobSpec{specs[plan.order[0]], specs[plan.order[1]]}
	res := newResult("sweep", rc)
	root := tr.begin(0, "workload:sweep")

	var setups [][]float64
	setup := func() (*sweepSession, error) {
		id := tr.begin(root, "setup")
		t0 := time.Now()
		s, err := openSweep(sc, primers)
		setups = append(setups, []float64{time.Since(t0).Seconds()})
		tr.end(id)
		return s, err
	}
	setupsBefore, setupsAfter := rc.cheapSetupReps()
	var s *sweepSession
	for i := 0; i < setupsBefore; i++ {
		if s != nil {
			if _, err := s.close(); err != nil {
				return nil, err
			}
		}
		var err error
		if s, err = setup(); err != nil {
			return nil, err
		}
	}

	// Timed section: closed loop, sweepClients jobs outstanding.
	var (
		flying            []flight
		done              []time.Time                   // completion times, in the order seen
		latency           []float64                     // ms, POST accepted -> terminal state seen
		submits, polls    []float64                     // ms round trips
		queueWait, runDur []float64                     // ms, server side
		prints            = map[string]map[string]int{} // spec key -> result fingerprints seen
		submitted         = map[string]jobSpec{}
		heap              float64
	)
	fail := func(err error) (*result, error) {
		s.close()
		return nil, err
	}
	timed := tr.begin(root, "timed")
	jobsRoot := tr.begin(root, "jobs")
	start := time.Now()
	deadline := start.Add(time.Duration(rc.seconds * float64(time.Second)))
	for {
		// Whole rounds only, at least sweepRounds: the first finds the
		// warm store empty. The loop runs dry once, after those rounds,
		// so the live heap is read with the same jobs on record and none
		// in flight however long the section then goes on.
		fixed := sweepRounds * plan.roundJobs()
		if plan.next == fixed && len(done) == fixed && heap == 0 {
			heap = liveHeapMB()
		}
		for len(flying) < sweepClients && (plan.next%plan.roundJobs() != 0 || plan.next < fixed ||
			heap != 0 && time.Now().Before(deadline) && !rc.smoke) {
			job := plan.take()
			id := tr.begin(timed, "submit")
			t0 := time.Now()
			st, err := s.client.submit(job)
			if err != nil {
				return fail(err)
			}
			now := time.Now()
			tr.end(id)
			tr.setReq(id, st.ID)
			submits = append(submits, now.Sub(t0).Seconds()*1e3)
			flying = append(flying, flight{id: st.ID, spec: job, accepted: now})
		}
		if len(flying) == 0 {
			break
		}
		for i := 0; i < len(flying); {
			f := flying[i]
			id := tr.begin(timed, "poll")
			t0 := time.Now()
			st, err := s.client.get(f.id)
			if err != nil {
				return fail(err)
			}
			now := time.Now()
			tr.end(id)
			tr.setReq(id, f.id)
			polls = append(polls, now.Sub(t0).Seconds()*1e3)
			if !st.Terminal {
				i++
				continue
			}
			flying = append(flying[:i], flying[i+1:]...)
			done = append(done, now)
			latency = append(latency, now.Sub(f.accepted).Seconds()*1e3)
			queueWait = append(queueWait, st.Started.Sub(st.Submitted).Seconds()*1e3)
			runDur = append(runDur, st.Finished.Sub(st.Started).Seconds()*1e3)
			res.check(st.Done, "job %s ended %q", f.id, st.Error)
			key := specKey(f.spec)
			if prints[key] == nil {
				prints[key], submitted[key] = map[string]int{}, f.spec
			}
			prints[key][st.Fingerprint]++
			job := tr.add(jobsRoot, "job", f.id, f.accepted, now)
			tr.add(job, "queue", f.id, st.Submitted, st.Started)
			tr.add(job, "run", f.id, st.Started, st.Finished)
		}
		id := tr.begin(timed, "sleep")
		time.Sleep(sweepPoll)
		tr.end(id)
	}
	res.TimedWall = time.Since(start).Seconds()
	tr.end(jobsRoot)
	tr.end(timed)

	// Every round holds the same jobs in the same order, so any stretch
	// of one round's worth of consecutive completions is the same work:
	// the value is the fastest such stretch, the samples are the rounds.
	// (The first round, all cold, and the stretch around the dry spell
	// are slower and never it.)
	per := plan.roundJobs()
	times := append([]time.Time{start}, done...)
	fastest := math.Inf(1)
	for i := 0; i+per < len(times); i++ {
		fastest = min(fastest, times[i+per].Sub(times[i]).Seconds())
	}
	var rounds []float64
	for i := per; i < len(times); i += per {
		rounds = append(rounds, times[i].Sub(times[i-per]).Seconds())
	}
	round := measured{fastest, summarize(rounds)}
	res.Units = len(rounds)
	res.EndToEnd["work_per_s"] = round.rate(float64(per))
	res.EndToEnd["live_heap_mb"] = once(heap)

	res.Layer["serve.jobs_per_s"] = res.EndToEnd["work_per_s"].Value
	res.LayerSamples["serve.jobs_per_s"] = res.EndToEnd["work_per_s"].Samples
	res.Layer["serve.cold_round_s"] = round.Samples.Max
	res.layerMedian("serve.job_latency_p50_ms", latency)
	tail := tailPercentile(len(latency))
	res.Layer["serve.job_latency_tail_pct"] = tail
	res.Layer["serve.job_latency_tail_ms"] = percentile(latency, tail)
	res.layerMedian("serve.submit_ms_p50", submits)
	res.layerMedian("serve.poll_ms_p50", polls)
	res.layerMedian("serve.queue_wait_ms_p50", queueWait)
	res.layerMedian("serve.run_ms_p50", runDur)
	res.Layer["serve.journal_bytes"] = float64(s.srv.journalBytes())

	id := tr.begin(root, "drain")
	drain, err := s.close()
	tr.end(id)
	if err != nil {
		return nil, err
	}
	res.Layer["serve.drain_ms"] = drain.Seconds() * 1e3
	for i := 0; i < setupsAfter; i++ {
		again, err := setup()
		if err != nil {
			return nil, err
		}
		if _, err := again.close(); err != nil {
			return nil, err
		}
	}
	res.EndToEnd["setup_s"] = fastestSum(setups)

	// Every submission of one spec must print one fingerprint, and for a
	// few specs the seed picks, the same one a direct library run prints.
	id = tr.begin(root, "check")
	var ran []string
	for key, fps := range prints {
		res.check(len(fps) == 1, "spec %.12s: its submissions printed %d different fingerprints", key, len(fps))
		ran = append(ran, key)
	}
	sort.Strings(ran)
	rng.Shuffle(len(ran), func(i, j int) { ran[i], ran[j] = ran[j], ran[i] })
	for _, key := range ran[:min(sweepDirectRun, len(ran))] {
		fp, err := directRun(context.Background(), submitted[key], sc)
		_, same := prints[key][fp]
		res.check(err == nil && same, "spec %.12s: a direct run printed %.12s, the service did not (err %v)", key, fp, err)
	}
	tr.end(id)
	tr.end(root)
	return res, nil
}
