package serve

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pabst/internal/config"
	"pabst/internal/exp"
)

// tinyScale is a sub-second experiment scale for service tests.
func tinyScale() exp.Scale {
	return exp.Scale{Name: "tiny", Warmup: 10_000, Measure: 15_000, Epoch: 2000, Window: 2000}
}

func tinySpec() exp.RunSpec {
	return exp.RunSpec{Bench: exp.BenchStreams, Scale: "tiny"}
}

// testConfig builds a fast-timing service config over a fresh dir.
func testConfig(t testing.TB, runner Runner) Config {
	t.Helper()
	return Config{
		Dir:        t.TempDir(),
		QueueDepth: 64,
		Workers:    2,
		DrainGrace: 50 * time.Millisecond,
		Exec:       exp.Exec{Scales: map[string]exp.Scale{"tiny": tinyScale()}},
		Runner:     runner,
	}
}

// okRunner completes instantly with a fingerprint derived from the spec,
// mimicking the determinism contract without simulating.
func okRunner(ctx context.Context, spec exp.RunSpec, ex exp.Exec) (exp.RunResult, error) {
	return exp.RunResult{Fingerprint: "fp-" + spec.Fingerprint(), Cycles: 1}, nil
}

// waitFor polls until cond holds or the deadline trips the test. The
// deadline is generous: under the race detector on a small machine a
// real-simulation sweep takes tens of seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func mustState(t *testing.T, s *Service, id string, want JobState) {
	t.Helper()
	waitFor(t, fmt.Sprintf("job %s to reach %s", id, want), func() bool {
		v, err := s.Get(id)
		if err != nil {
			t.Fatalf("get %s: %v", id, err)
		}
		return v.State == want
	})
}

func TestSubmitValidation(t *testing.T) {
	s, err := New(testConfig(t, okRunner))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Submit(exp.RunSpec{Bench: "nope", Scale: "tiny"}, SubmitOptions{}); !errors.Is(err, config.ErrInvalid) {
		t.Fatalf("bad bench accepted: %v", err)
	}
	if _, err := s.Submit(exp.RunSpec{Bench: exp.BenchStreams, Scale: "galactic"}, SubmitOptions{}); !errors.Is(err, config.ErrInvalid) {
		t.Fatalf("unknown scale accepted: %v", err)
	}
	// sat-delay lags a heartbeat up to 3000 cycles: valid at the paper's
	// 20 000-cycle epoch, not under the 2000 cycles quick runs at. The
	// spec is checked at the epoch it would run at, so it is refused
	// here rather than failing in a worker after it was journaled.
	if _, err := s.Submit(exp.RunSpec{Bench: exp.BenchStreams, Scale: "quick", Fault: "sat-delay"}, SubmitOptions{}); !errors.Is(err, config.ErrInvalid) {
		t.Fatalf("a fault plan invalid at the spec's epoch accepted: %v", err)
	}
	if n := journalRecords(t, s.cfg.Dir); n != 0 {
		t.Fatalf("refused submissions left %d journal records", n)
	}
}

// TestAdmissionControl pins the bounded queue: beyond QueueDepth
// waiting jobs, Submit rejects with ErrQueueFull; during a drain it
// rejects with ErrDraining.
func TestAdmissionControl(t *testing.T) {
	release := make(chan struct{})
	blocking := func(ctx context.Context, spec exp.RunSpec, ex exp.Exec) (exp.RunResult, error) {
		select {
		case <-release:
			return exp.RunResult{Fingerprint: "x"}, nil
		case <-ctx.Done():
			return exp.RunResult{}, ctx.Err()
		}
	}
	cfg := testConfig(t, blocking)
	cfg.QueueDepth = 4
	cfg.Workers = 1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Start()

	// One job occupies the worker; QueueDepth more wait.
	first, err := s.Submit(tinySpec(), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mustState(t, s, first.ID, StateRunning)
	for i := 0; i < cfg.QueueDepth; i++ {
		if _, err := s.Submit(tinySpec(), SubmitOptions{}); err != nil {
			t.Fatalf("submit %d rejected: %v", i, err)
		}
	}
	waitFor(t, "queue to fill", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.queue) == cfg.QueueDepth
	})
	if _, err := s.Submit(tinySpec(), SubmitOptions{}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-depth submit error = %v, want ErrQueueFull", err)
	}

	close(release)
	done := make(chan error, 1)
	go func() { done <- s.Drain(context.Background()) }()
	waitFor(t, "draining", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.draining
	})
	if _, err := s.Submit(tinySpec(), SubmitOptions{}); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit during drain error = %v, want ErrDraining", err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// runFinal submits spec to a fresh service whose runner is runner,
// waits for the job to end in want, and returns its view and the
// number of fail records the journal holds for it. A run does no I/O,
// so a rerun would fail the same way: these tests pin that a job's
// first outcome is final.
func runFinal(t *testing.T, runner Runner, spec exp.RunSpec, want JobState) (JobView, int) {
	t.Helper()
	cfg := testConfig(t, runner)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Start()
	v, err := s.Submit(spec, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mustState(t, s, v.ID, want)
	// Read the journal before the drain compacts it.
	recs, err := loadJournal(filepath.Join(cfg.Dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	// The drain parks the workers, so no run is still to come.
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Get(v.ID)
	fails := 0
	for _, r := range recs {
		switch {
		case r.Op == opSubmit:
		case r.Op == opFail && r.ID == v.ID:
			fails++
		default:
			t.Errorf("journal record %+v, want only submit and fail", r)
		}
	}
	return got, fails
}

// TestFailureIsNotRetried pins that a failure is never retried: a
// runner that fails its first call and would succeed on the next is
// called once, and the job ends failed with the first error.
func TestFailureIsNotRetried(t *testing.T) {
	var calls atomic.Int64
	flaky := func(ctx context.Context, spec exp.RunSpec, ex exp.Exec) (exp.RunResult, error) {
		if calls.Add(1) == 1 {
			return exp.RunResult{}, errors.New("fails the first time")
		}
		return exp.RunResult{Fingerprint: "ok"}, nil
	}
	got, fails := runFinal(t, flaky, tinySpec(), StateFailed)
	if n := calls.Load(); n != 1 {
		t.Fatalf("the flaky runner ran %d times, want once", n)
	}
	if got.Result != nil || !strings.Contains(got.Error, "fails the first time") || fails != 1 {
		t.Fatalf("job after one failed run: %+v with %d fail records, want failed with the first error and 1 record", got, fails)
	}
}

// TestFailingRunnerRunsOnce pins that there is no attempt budget: a
// runner that always fails is called once, and the job ends failed with
// one fail record in the journal.
func TestFailingRunnerRunsOnce(t *testing.T) {
	var calls atomic.Int64
	always := func(ctx context.Context, spec exp.RunSpec, ex exp.Exec) (exp.RunResult, error) {
		calls.Add(1)
		return exp.RunResult{}, errors.New("the same spec fails every time")
	}
	got, fails := runFinal(t, always, tinySpec(), StateFailed)
	if n := calls.Load(); n != 1 {
		t.Fatalf("the failing runner ran %d times, want once", n)
	}
	if fails != 1 || !strings.Contains(got.Error, "fails every time") {
		t.Fatalf("failed job %+v with %d fail records, want its error and 1 record", got, fails)
	}
}

// TestEveryFailureIsFinal pins that every failure is terminal: a runner
// that panics and one that returns an invalid-configuration error are
// each called once and end failed with one fail record.
func TestEveryFailureIsFinal(t *testing.T) {
	for _, c := range []struct {
		name string
		run  func() error
	}{
		{"panic", func() error { panic("the same spec panics every time") }},
		{"invalid", func() error { return fmt.Errorf("%w: config rot", config.ErrInvalid) }},
	} {
		var calls atomic.Int64
		runner := func(ctx context.Context, spec exp.RunSpec, ex exp.Exec) (exp.RunResult, error) {
			calls.Add(1)
			return exp.RunResult{}, c.run()
		}
		got, fails := runFinal(t, runner, tinySpec(), StateFailed)
		if n := calls.Load(); n != 1 || fails != 1 {
			t.Errorf("%s: runner ran %d times with %d fail records (%+v), want once and 1", c.name, n, fails, got)
		}
	}
}

// TestPanicIsolation pins that a panicking simulation fails only its
// own job, with the stack in its error; the worker survives to run the
// next one.
func TestPanicIsolation(t *testing.T) {
	bomber := func(ctx context.Context, spec exp.RunSpec, ex exp.Exec) (exp.RunResult, error) {
		if spec.Bench == exp.BenchChaser {
			panic("index out of range in someone's DRAM model")
		}
		return exp.RunResult{Fingerprint: "fine"}, nil
	}
	cfg := testConfig(t, bomber)
	cfg.Workers = 1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Start()
	bad, err := s.Submit(exp.RunSpec{Bench: exp.BenchChaser, Scale: "tiny"}, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	good, err := s.Submit(tinySpec(), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mustState(t, s, bad.ID, StateFailed)
	mustState(t, s, good.ID, StateDone)
	if n := s.m.panics.Load(); n != 1 {
		t.Fatalf("panic counter %d, want 1", n)
	}
	gotBad, _ := s.Get(bad.ID)
	if !strings.Contains(gotBad.Error, "someone's DRAM model") || !strings.Contains(gotBad.Error, "debug.Stack") {
		t.Fatalf("panicked job's error %q, want the panic value and its stack", gotBad.Error)
	}
}

// TestDeadline pins per-job deadlines: a run overrunning its
// budget is cancelled and the job lands in StateCanceled.
func TestDeadline(t *testing.T) {
	sleeper := func(ctx context.Context, spec exp.RunSpec, ex exp.Exec) (exp.RunResult, error) {
		<-ctx.Done()
		return exp.RunResult{}, ctx.Err()
	}
	s, err := New(testConfig(t, sleeper))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Start()
	v, err := s.Submit(tinySpec(), SubmitOptions{DeadlineMS: 20})
	if err != nil {
		t.Fatal(err)
	}
	mustState(t, s, v.ID, StateCanceled)
}

// TestDrainRequeueRecover is the graceful-drain contract: an in-flight
// job is cancelled and requeued, the journal
// compacts to its one submit record, and a second service over the same
// dir recovers it and reruns it to done. Once with fake runners, once
// through the real ExpRunner cancelled mid-measure — there the rerun must
// produce an uninterrupted run's fingerprint at the price of one warmup
// and one measure window.
func TestDrainRequeueRecover(t *testing.T) {
	t.Run("fake", func(t *testing.T) {
		inflight := make(chan struct{})
		first := func(ctx context.Context, spec exp.RunSpec, ex exp.Exec) (exp.RunResult, error) {
			close(inflight)
			<-ctx.Done()
			return exp.RunResult{}, ctx.Err()
		}
		drainRequeueRecover(t, testConfig(t, first), inflight, okRunner)
	})
	t.Run("real", func(t *testing.T) {
		cfg := testConfig(t, nil)
		ref, err := tinySpec().Run(context.Background(), cfg.Exec, exp.RunIO{})
		if err != nil {
			t.Fatal(err)
		}
		// A mid-measure checkpoint an older build left behind: were it
		// read, ExpRunner would refuse it and the rerun fail.
		stale := filepath.Join(cfg.Dir, "partial", "j-000000.ckpt")
		if err := os.MkdirAll(filepath.Dir(stale), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(stale, []byte("not a checkpoint"), 0o644); err != nil {
			t.Fatal(err)
		}
		// The run asks its context at every epoch boundary and chunk,
		// 37 times through the tiny warmup, so parking the 47th ask until
		// the drain cancels the run is a cancel a quarter of the way into
		// the measure window.
		inflight := make(chan struct{})
		var cut atomic.Uint64
		cfg.Runner = func(ctx context.Context, spec exp.RunSpec, ex exp.Exec) (exp.RunResult, error) {
			r, err := ExpRunner(&parkCtx{Context: ctx, at: 47, reached: inflight}, spec, ex)
			cut.Store(r.Cycles)
			return r, err
		}
		got := drainRequeueRecover(t, cfg, inflight, ExpRunner)
		if got.Result.Fingerprint != ref.Fingerprint {
			t.Fatalf("rerun fingerprint %s, want the uninterrupted %s", got.Result.Fingerprint, ref.Fingerprint)
		}
		if c := cut.Load(); c == 0 || c >= tinyScale().Measure {
			t.Fatalf("the drain cancelled the run after %d measured cycles; want mid-measure", c)
		}
		if raw, err := os.ReadFile(stale); err != nil || string(raw) != "not a checkpoint" {
			t.Fatalf("the older build's partial is now %q, %v; want it left alone", raw, err)
		}
	})
}

// parkCtx is a run's context whose at-th Err call closes reached and
// waits for the context to be done. A run asks at every epoch boundary
// and every chunk, so that call falls at a fixed cycle of a given spec's
// run, and whoever cancels the context (a drain) cuts the run there.
type parkCtx struct {
	context.Context
	calls   atomic.Int64
	at      int64
	reached chan struct{}
}

func (c *parkCtx) Err() error {
	if c.calls.Add(1) == c.at {
		close(c.reached)
		<-c.Done()
	}
	return c.Context.Err()
}

// drainRequeueRecover submits one job to a service over cfg, drains it
// once the job signals it is in flight, restarts over the same dir with
// rerun as the runner, and returns the finished job.
func drainRequeueRecover(t *testing.T, cfg Config, inflight <-chan struct{}, rerun Runner) JobView {
	t.Helper()
	cfg.Workers = 1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	v, err := s.Submit(tinySpec(), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	<-inflight
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Get(v.ID)
	if got.State != StateQueued || got.Requeues != 1 {
		t.Fatalf("after drain: %+v", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	jpath := filepath.Join(cfg.Dir, "journal.jsonl")
	if recs, err := loadJournal(jpath); err != nil || len(recs) != 1 || recs[0].Op != opSubmit || recs[0].ID != v.ID {
		t.Fatalf("journal after drain = %+v, %v; want the one submit record", recs, err)
	}

	cfg.Runner = rerun
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if n := s2.m.recovered.Load(); n != 1 {
		t.Fatalf("recovered %d jobs, want 1", n)
	}
	s2.Start()
	mustState(t, s2, v.ID, StateDone)
	got, _ = s2.Get(v.ID)
	if got.Requeues != 0 {
		t.Fatalf("rerun was requeued %d times, want a single run", got.Requeues)
	}
	// Once everything is done, a drain compacts the journal to empty.
	if err := s2.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(jpath); err != nil || fi.Size() != 0 {
		t.Fatalf("journal after a clean drain: %v, %v; want 0 bytes", fi, err)
	}
	return got
}

// TestDrainHonorsContext: a worker that ignores cancellation does not
// hold Drain past its context. Drain returns within a small multiple of
// its deadline with context.DeadlineExceeded, and the unparked job stays
// live in the journal.
func TestDrainHonorsContext(t *testing.T) {
	stuck := make(chan struct{})
	inflight := make(chan struct{})
	deaf := func(ctx context.Context, spec exp.RunSpec, ex exp.Exec) (exp.RunResult, error) {
		close(inflight)
		<-stuck // ignores ctx
		return exp.RunResult{}, ctx.Err()
	}
	cfg := testConfig(t, deaf)
	cfg.Workers = 1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	defer close(stuck) // runs before Close, so Close can park the worker
	s.Start()
	v, err := s.Submit(tinySpec(), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	<-inflight

	const budget = 50 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	start := time.Now()
	err = s.Drain(ctx)
	if took := time.Since(start); took > 10*budget {
		t.Fatalf("Drain took %v past a %v context", took, budget)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain = %v, want context.DeadlineExceeded", err)
	}
	recs, err := loadJournal(filepath.Join(cfg.Dir, "journal.jsonl"))
	if err != nil || len(recs) != 1 || recs[0].Op != opSubmit || recs[0].ID != v.ID {
		t.Fatalf("journal after an unfinished drain = %+v, %v; want the job's submit record", recs, err)
	}
}

// TestCloseHonorsGrace: a worker that ignores cancellation does not hold
// Close past DrainGrace. Close returns an error naming the job that
// worker holds, and the job's submit record stays in the journal.
func TestCloseHonorsGrace(t *testing.T) {
	stuck := make(chan struct{})
	inflight := make(chan struct{})
	deaf := func(ctx context.Context, spec exp.RunSpec, ex exp.Exec) (exp.RunResult, error) {
		close(inflight)
		<-stuck // ignores ctx
		return exp.RunResult{}, ctx.Err()
	}
	cfg := testConfig(t, deaf)
	cfg.Workers = 1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer close(stuck)
	s.Start()
	v, err := s.Submit(tinySpec(), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	<-inflight

	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	select {
	case err = <-closed:
	case <-time.After(time.Second):
		t.Fatalf("Close still blocked after 1 s by a worker deaf to cancellation (grace %v)", cfg.DrainGrace)
	}
	if !errors.Is(err, context.DeadlineExceeded) || !strings.Contains(err.Error(), v.ID) {
		t.Fatalf("Close = %v, want context.DeadlineExceeded naming the running job %s", err, v.ID)
	}
	recs, err := loadJournal(filepath.Join(cfg.Dir, "journal.jsonl"))
	if err != nil || len(recs) != 1 || recs[0].Op != opSubmit || recs[0].ID != v.ID {
		t.Fatalf("journal after a cut-short close = %+v, %v; want the job's submit record", recs, err)
	}
}
