package exp

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"pabst/internal/config"
)

// Experiment is the single seam every reproduction experiment runs
// through: a named, self-describing mapping from a scale name to the
// RunSpecs it needs, plus a pure reduction from those specs' results to
// a paper-style table. Because the specs are the canonical serializable
// run descriptions, every consumer — the CLI table printers, the sweep
// service, a result cache — schedules, dedups, and distributes
// experiment work the same way, and two experiments that share a spec
// (fig10 and fig12, fig1 and fig7) share its simulation.
type Experiment interface {
	// Name is the registry key (also the CLI selector).
	Name() string
	// Desc is a one-line description for listings.
	Desc() string
	// Spec returns the runs the experiment needs at the named scale, in
	// a deterministic order. Reduce receives results in the same order.
	Spec(scale string) []RunSpec
	// Reduce folds the executed specs' results into the experiment's
	// table. It must be pure: no simulation, no I/O.
	Reduce(specs []RunSpec, results []RunResult) (*Table, error)
}

var (
	expMu       sync.RWMutex
	experiments = map[string]Experiment{}
)

// RegisterExperiment adds an experiment to the registry. Double
// registration of a name is a programming error.
func RegisterExperiment(e Experiment) {
	expMu.Lock()
	defer expMu.Unlock()
	if _, dup := experiments[e.Name()]; dup {
		panic(fmt.Sprintf("exp: duplicate experiment %q", e.Name()))
	}
	experiments[e.Name()] = e
}

// Experiments lists the registered experiments sorted by name.
func Experiments() []Experiment {
	expMu.RLock()
	defer expMu.RUnlock()
	out := make([]Experiment, 0, len(experiments))
	for _, e := range experiments {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// ExperimentByName looks an experiment up; the error wraps
// config.ErrInvalid and lists the registry.
func ExperimentByName(name string) (Experiment, error) {
	expMu.RLock()
	defer expMu.RUnlock()
	if e, ok := experiments[name]; ok {
		return e, nil
	}
	names := make([]string, 0, len(experiments))
	for n := range experiments {
		names = append(names, n)
	}
	sort.Strings(names)
	return nil, fmt.Errorf("%w: unknown experiment %q (have %v)",
		config.ErrInvalid, name, names)
}

// RunCache memoizes RunResults by spec fingerprint. Specs are
// deterministic — equal fingerprints mean bit-identical outcomes — so a
// cache shared by runs that resolve each scale name alike never changes
// an answer, only skips re-simulating it (fig10 and fig12 share a whole
// grid; the sweep service answers a resubmitted spec). RunSpec.Run consults and fills it (see Exec.Results). Cached
// results are shared, not copied: callers treat them as read-only.
type RunCache struct {
	mu   sync.Mutex
	m    map[string]RunResult
	hits atomic.Uint64
}

// NewRunCache returns an empty cache.
func NewRunCache() *RunCache { return &RunCache{m: map[string]RunResult{}} }

// get returns the cached result for a fingerprint, counting a hit.
func (c *RunCache) get(fp string) (RunResult, bool) {
	if c == nil {
		return RunResult{}, false
	}
	c.mu.Lock()
	r, ok := c.m[fp]
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
	}
	return r, ok
}

// put stores a result under a fingerprint.
func (c *RunCache) put(fp string, r RunResult) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[fp] = r
}

// Len reports how many results the cache holds.
func (c *RunCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Hits reports how many runs the cache answered without simulating.
func (c *RunCache) Hits() uint64 {
	if c == nil {
		return 0
	}
	return c.hits.Load()
}

// RunExperimentScale executes an experiment end to end under one
// resolved Scale: resolve its specs at the scale's name ("custom" when
// anonymous, so they resolve back to exactly sc, -policy included), run
// them (parallel by ForEach's rule on sc.Parallel: 0 = every core, 1 =
// one at a time) under an Exec whose Results is cache, and reduce. Specs are grouped by fingerprint before dispatch, so each
// distinct machine simulates at most once however the pool schedules —
// equal specs share one RunResult, with or without a cache. cache may be
// shared across experiments run at one Scale in one process (fig10 and
// fig12 then run their common grid once) or nil to skip caching
// entirely. The specs and their results are returned alongside the
// table so callers can persist or re-reduce them.
func RunExperimentScale(ctx context.Context, e Experiment, sc Scale, cache *RunCache) (*Table, []RunSpec, []RunResult, error) {
	name := sc.Name
	if name == "" {
		name = "custom"
	}
	ex := Exec{Scales: map[string]Scale{name: sc}, Results: cache}
	specs := e.Spec(name)
	if len(specs) == 0 {
		return nil, nil, nil, fmt.Errorf("%w: experiment %q produced no specs", config.ErrInvalid, e.Name())
	}
	results := make([]RunResult, len(specs))
	fps := make([]string, len(specs))
	first := make(map[string]int, len(specs)) // fingerprint -> first spec carrying it
	var todo []int                            // first-of-fingerprint indices
	for i := range specs {
		fps[i] = specs[i].Fingerprint()
		if _, seen := first[fps[i]]; !seen {
			first[fps[i]] = i
			todo = append(todo, i)
		}
	}
	err := ForEach(ctx, sc.Parallel, len(todo), func(k int) error {
		i := todo[k]
		r, err := specs[i].Run(ctx, ex, RunIO{})
		if err != nil {
			return fmt.Errorf("%s spec %d (%s): %w", e.Name(), i, specs[i].Bench, err)
		}
		results[i] = r
		return nil
	})
	if err != nil {
		return nil, nil, nil, err
	}
	for i, fp := range fps {
		results[i] = results[first[fp]]
	}
	t, err := e.Reduce(specs, results)
	if err != nil {
		return nil, nil, nil, err
	}
	return t, specs, results, nil
}
