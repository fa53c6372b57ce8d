package serve

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"pabst/internal/exp"
)

// chaosScale keeps real-simulation chaos runs sub-second per job.
func chaosScale() exp.Scale {
	return exp.Scale{Name: "chaos", Warmup: 10_000, Measure: 15_000, Epoch: 2000, Window: 2000}
}

// TestChaosAcceptance is the service's acceptance run: 32 concurrent
// jobs through the REAL simulator while the service is drained
// mid-sweep and restarted. Every job must complete exactly once with a
// result fingerprint identical to a serial CLI-style run of the same
// spec, with no job lost or duplicated across the restart and an empty
// journal after the final drain.
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
	// The first incarnation's runs are throttled so the sweep is still
	// in flight when the drain fires — without the sleep a fast machine
	// finishes all 32 jobs before any chaos lands.
	throttled := func(ctx context.Context, spec exp.RunSpec, ex exp.Exec) (exp.RunResult, error) {
		select {
		case <-time.After(500 * time.Millisecond):
		case <-ctx.Done():
			return exp.RunResult{}, ctx.Err()
		}
		return ExpRunner(ctx, spec, ex)
	}
	cfg := Config{
		Dir:        dir,
		QueueDepth: 64,
		Workers:    4,
		DrainGrace: 30 * time.Millisecond,
		Exec:       exp.Exec{Scales: map[string]exp.Scale{"chaos": chaosScale()}},
		Runner:     throttled,
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

	// Let the sweep get meaningfully underway, then SIGTERM-style drain
	// with some jobs mid-measure.
	waitFor(t, "a third of the sweep to complete", func() bool {
		return s.Counts()[StateDone] >= 10
	})
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// Nothing lost at the boundary: every job is either done or queued
	// for the next incarnation (any other state would mean the chaos
	// broke a job).
	doneFirst := make(map[string]bool)
	queuedFirst := 0
	for _, v := range s.List() {
		switch v.State {
		case StateDone:
			doneFirst[v.ID] = true
		case StateQueued:
			queuedFirst++
		default:
			t.Fatalf("job %s in state %s after drain: %s", v.ID, v.State, v.Error)
		}
	}
	if len(doneFirst)+queuedFirst != len(ids) {
		t.Fatalf("drain lost jobs: %d done + %d queued != %d", len(doneFirst), queuedFirst, len(ids))
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

	// Every job completed exactly once across both incarnations, and every result fingerprint — drained jobs rerun
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
	if len(finished) != len(ids) {
		t.Fatalf("%d of %d jobs finished", len(finished), len(ids))
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
