package serve

import (
	"context"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pabst/internal/exp"
)

// chaosScale keeps real-simulation chaos runs sub-second per job.
func chaosScale() exp.Scale {
	return exp.Scale{Name: "chaos", Warmup: 10_000, Measure: 15_000, Epoch: 2000, Window: 2000}
}

// TestChaosAcceptance is the service's acceptance run: 32 concurrent
// jobs through the REAL simulator while a worker wedges and the
// service is drained mid-sweep and restarted. The wedged job fails with
// the silence in its error; every other job must complete exactly once
// with a result fingerprint identical to a serial CLI-style run of the
// same spec, with no job lost or duplicated across the restart and an
// empty journal after the final drain.
func TestChaosAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos acceptance simulates ~0.6M cycles")
	}
	specs := []exp.RunSpec{
		{Bench: exp.BenchStreams, Scale: "chaos"},
		{Bench: exp.BenchStreams, Scale: "chaos", Params: map[string]uint64{"slack": 64}},
		{Bench: exp.BenchChaser, Scale: "chaos"},
		{Bench: exp.BenchChaser, Scale: "chaos", Params: map[string]uint64{"epoch": 1000}},
	}
	const perSpec = 8 // 4 specs × 8 = 32 jobs

	// Serial references: one plain, uncached RunSpec.Run per spec,
	// exactly what pabstsim executes.
	refEx := exp.Exec{Scales: map[string]exp.Scale{"chaos": chaosScale()}}
	refs := make(map[string]exp.RunResult, len(specs))
	for _, spec := range specs {
		res, err := spec.Run(context.Background(), refEx, exp.RunIO{})
		if err != nil {
			t.Fatalf("serial reference %v: %v", spec, err)
		}
		refs[spec.Fingerprint()] = res
	}

	dir := t.TempDir()
	// The first incarnation's runner wedges exactly once: the victim
	// run blocks without heartbeats until cancelled, forcing the
	// supervisor's wedge path, which fails the job. Every
	// other job is throttled so the sweep is still in flight when the
	// wedge detector (and then the drain) fires — without the sleep a
	// fast machine finishes all 32 jobs before any chaos lands.
	var wedged atomic.Bool
	wedgeRunner := func(ctx context.Context, spec exp.RunSpec, env RunEnv) (exp.RunResult, error) {
		if !wedged.Swap(true) {
			<-ctx.Done()
			return exp.RunResult{}, ctx.Err()
		}
		select {
		case <-time.After(500 * time.Millisecond):
		case <-ctx.Done():
			return exp.RunResult{}, ctx.Err()
		}
		return ExpRunner(ctx, spec, env)
	}
	cfg := Config{
		Dir:        dir,
		QueueDepth: 64,
		Workers:    4,
		// Generous: under the race detector on a single-core machine a
		// healthy simulation goroutine can go unscheduled for ~1s.
		HeartbeatTimeout: 2 * time.Second,
		DrainGrace:       30 * time.Millisecond,
		Exec:             exp.Exec{Scales: map[string]exp.Scale{"chaos": chaosScale()}},
		Runner:           wedgeRunner,
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()

	ids := make(map[string]string, len(specs)*perSpec) // job id → spec fingerprint
	for i := 0; i < perSpec; i++ {
		for _, spec := range specs {
			v, err := s.Submit(spec, SubmitOptions{})
			if err != nil {
				t.Fatalf("submit: %v", err)
			}
			ids[v.ID] = spec.Fingerprint()
		}
	}
	if len(ids) != len(specs)*perSpec {
		t.Fatalf("submitted %d distinct jobs, want %d", len(ids), len(specs)*perSpec)
	}

	// Let the sweep get meaningfully underway and the wedge detector
	// fire, then SIGTERM-style drain with some jobs mid-measure.
	waitFor(t, "a third of the sweep to complete and the wedge to trip", func() bool {
		return s.Counts()[StateDone] >= 10 && s.m.wedgeCancels.Load() >= 1
	})
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// Nothing lost at the boundary: the victim failed with the silence
	// in its error, and every other job is either done or queued for the
	// next incarnation (any other state would mean the chaos broke a
	// job).
	doneFirst := make(map[string]bool)
	queuedFirst, victims := 0, 0
	for _, v := range s.List() {
		switch {
		case v.State == StateDone:
			doneFirst[v.ID] = true
		case v.State == StateQueued:
			queuedFirst++
		case v.State == StateFailed && strings.Contains(v.Error, "silent"):
			victims++
		default:
			t.Fatalf("job %s in state %s after drain: %s", v.ID, v.State, v.Error)
		}
	}
	if victims != 1 {
		t.Fatalf("%d jobs failed for silence, want the one victim", victims)
	}
	if len(doneFirst)+queuedFirst+victims != len(ids) {
		t.Fatalf("drain lost jobs: %d done + %d queued + %d failed != %d", len(doneFirst), queuedFirst, victims, len(ids))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart over the same directory; the journal re-queues exactly
	// the unfinished jobs.
	cfg.Runner = ExpRunner
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if n := int(s2.m.recovered.Load()); n != queuedFirst {
		t.Fatalf("recovered %d jobs, want the %d left queued", n, queuedFirst)
	}
	for _, v := range s2.List() {
		if doneFirst[v.ID] {
			t.Fatalf("job %s finished before the restart but was recovered again", v.ID)
		}
		if _, known := ids[v.ID]; !known {
			t.Fatalf("recovered unknown job %s", v.ID)
		}
	}
	s2.Start()
	waitFor(t, "the recovered jobs to finish", func() bool {
		c := s2.Counts()
		return c[StateDone] == queuedFirst
	})

	// Every job but the victim completed exactly once across both
	// incarnations, and every result fingerprint — drained jobs rerun
	// from a fresh machine included — matches its serial reference bit
	// for bit.
	finished := make(map[string]bool)
	check := func(v JobView) {
		if v.State != StateDone {
			t.Fatalf("job %s ended %s: %s", v.ID, v.State, v.Error)
		}
		if finished[v.ID] {
			t.Fatalf("job %s completed twice", v.ID)
		}
		finished[v.ID] = true
		want := refs[ids[v.ID]]
		if v.Result == nil || v.Result.Fingerprint != want.Fingerprint {
			t.Fatalf("job %s fingerprint diverged from serial run:\n%+v\nwant %+v", v.ID, v.Result, want)
		}
	}
	for _, v := range s.List() {
		if v.State == StateDone {
			check(v)
		}
	}
	for _, v := range s2.List() {
		check(v)
	}
	if len(finished) != len(ids)-victims {
		t.Fatalf("%d of %d jobs finished", len(finished), len(ids)-victims)
	}

	// The supervisor actually earned its keep.
	if s.m.wedgeCancels.Load() == 0 {
		t.Fatal("the wedge was never detected")
	}

	// Final drain with nothing pending compacts the journal to empty:
	// no orphaned work survives.
	if err := s2.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	fi, err := filepath.Glob(filepath.Join(dir, "journal.jsonl"))
	if err != nil || len(fi) != 1 {
		t.Fatalf("journal file: %v %v", fi, err)
	}
	if recs, err := loadJournal(fi[0]); err != nil || len(recs) != 0 {
		t.Fatalf("journal after final drain holds %d records (%v), want none", len(recs), err)
	}
}
