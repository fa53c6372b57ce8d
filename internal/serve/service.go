package serve

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sync"
	"time"

	"pabst/internal/exp"
)

// Typed admission errors — callers branch on these, and the REST layer
// maps them to status codes.
var (
	// ErrQueueFull: the bounded queue is at capacity; back off and retry.
	ErrQueueFull = errors.New("serve: job queue full")
	// ErrDraining: the service is shutting down and admits nothing new.
	ErrDraining = errors.New("serve: service draining")
	// ErrClosed: the service is closed.
	ErrClosed = errors.New("serve: service closed")
	// ErrNotFound: no such job.
	ErrNotFound = errors.New("serve: no such job")
)

// Runner executes one job run. The default is ExpRunner; tests
// substitute fast fakes to exercise the service without simulating.
type Runner func(ctx context.Context, spec exp.RunSpec, ex exp.Exec) (exp.RunResult, error)

// ExpRunner is the production Runner: exp.RunSpec.Run, which stops at
// the first epoch boundary or chunk end after ctx is done.
func ExpRunner(ctx context.Context, spec exp.RunSpec, ex exp.Exec) (exp.RunResult, error) {
	return spec.Run(ctx, ex, exp.RunIO{})
}

// Config parameterizes a Service. Zero values get sensible defaults
// from fill; only Dir is required.
type Config struct {
	// Dir is the service's state directory: the journal lives here.
	Dir string
	// QueueDepth bounds waiting jobs; Submit rejects with ErrQueueFull
	// beyond it. Default 64.
	QueueDepth int
	// Workers is the worker-pool size. Default 2.
	Workers int
	// DrainGrace is how long Drain lets in-flight jobs finish before
	// cancelling them back onto the queue. Default 3s.
	DrainGrace time.Duration
	// Exec is the execution environment for job runs. A nil Results
	// gets a fresh result cache, so a spec the service has already
	// completed is answered, not re-simulated, for as long as the
	// Service lives.
	Exec exp.Exec
	// Runner overrides job execution (tests); nil means ExpRunner.
	Runner Runner
}

func (c *Config) fill() error {
	if c.Dir == "" {
		return errors.New("serve: Config.Dir is required")
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.DrainGrace <= 0 {
		c.DrainGrace = 3 * time.Second
	}
	if c.Exec.Results == nil {
		c.Exec.Results = exp.NewRunCache()
	}
	if c.Runner == nil {
		c.Runner = ExpRunner
	}
	return nil
}

// SubmitOptions are per-job options.
type SubmitOptions struct {
	// DeadlineMS bounds the job's run in wall-clock milliseconds; a job
	// that overruns it ends canceled. 0 means none.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// Service is the sweep job system. See the package comment for the full
// contract.
type Service struct {
	cfg Config

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu    sync.Mutex
	cond  *sync.Cond // queue pushes, drain/close transitions, worker exits
	queue []*job     // FIFO of StateQueued jobs
	jobs  map[string]*job
	order []string // submission order, for List and compaction
	seq   uint64

	started  bool
	draining bool
	closed   bool

	liveWorkers int // worker goroutines not yet exited
	running     int // jobs a worker holds

	journal *journal
	m       metrics
}

// New builds a service over dir, replaying any journal it finds there:
// every non-terminal job from the previous incarnation re-enters the
// queue before the first worker starts. Call Start to begin executing.
func New(cfg Config) (*Service, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	jpath := filepath.Join(cfg.Dir, "journal.jsonl")
	recs, err := loadJournal(jpath)
	if err != nil {
		return nil, err
	}
	jl, err := openJournal(jpath)
	if err != nil {
		return nil, err
	}
	s := &Service{
		cfg:     cfg,
		jobs:    make(map[string]*job),
		journal: jl,
	}
	s.cond = sync.NewCond(&s.mu)
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.recover(recs)
	// Compact away terminal records from the previous incarnation so the
	// journal only carries live state forward.
	s.mu.Lock()
	err = s.compactLocked()
	s.mu.Unlock()
	if err != nil {
		jl.close()
		return nil, err
	}
	return s, nil
}

// recover replays journal records into the in-memory job table.
func (s *Service) recover(recs []rec) {
	for _, r := range recs {
		switch r.Op {
		case opSubmit:
			// A job is addressed as /jobs/{id}, so an id that is not one
			// path segment is not one this service issued.
			if r.Spec == nil || r.ID == "" || r.ID != filepath.Base(r.ID) {
				continue
			}
			if _, dup := s.jobs[r.ID]; dup {
				continue
			}
			j := &job{
				id:        r.ID,
				spec:      *r.Spec,
				specFP:    r.Spec.Fingerprint(),
				deadline:  time.Duration(r.DeadlineMS) * time.Millisecond,
				state:     StateQueued,
				submitted: time.Now(),
			}
			s.jobs[r.ID] = j
			s.order = append(s.order, r.ID)
			// Another process may have written the journal: a spec that
			// does not resolve here never reaches a runner.
			if _, _, err := s.cfg.Exec.Resolve(j.spec); err != nil {
				s.failLocked(j, err, j.submitted)
			}
		case opDone:
			if j := s.jobs[r.ID]; j != nil {
				j.state = StateDone
				j.result = &exp.RunResult{
					Fingerprint: r.ResultFP, ShareHi: r.ShareHi, TotalBPC: r.TotalBPC,
				}
			}
		case opFail:
			if j := s.jobs[r.ID]; j != nil {
				j.state = StateFailed
				j.errMsg = r.Err
			}
		case opCancel:
			if j := s.jobs[r.ID]; j != nil {
				j.state = StateCanceled
				j.errMsg = r.Err
			}
		}
		// Track the id counter past every recovered id so new ids never
		// collide.
		var n uint64
		if _, err := fmt.Sscanf(r.ID, "j-%d", &n); err == nil && n >= s.seq {
			s.seq = n + 1
		}
	}
	for _, id := range s.order {
		if j := s.jobs[id]; j.state == StateQueued {
			s.queue = append(s.queue, j)
			s.m.recovered.Add(1)
		}
	}
}

// Start launches the worker pool: Workers goroutines that run jobs
// until a drain or a close.
func (s *Service) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started || s.closed {
		return
	}
	s.started = true
	s.liveWorkers = s.cfg.Workers
	for i := 0; i < s.cfg.Workers; i++ {
		go s.workerLoop()
	}
}

// Submit validates, journals, and enqueues a job. The journal append
// happens before the job becomes visible: once Submit returns, the job
// survives a crash.
func (s *Service) Submit(spec exp.RunSpec, opt SubmitOptions) (JobView, error) {
	if _, _, err := s.cfg.Exec.Resolve(spec); err != nil {
		return JobView{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return JobView{}, ErrClosed
	}
	if s.draining {
		s.m.rejected.Add(1)
		return JobView{}, ErrDraining
	}
	if len(s.queue) >= s.cfg.QueueDepth {
		s.m.rejected.Add(1)
		return JobView{}, fmt.Errorf("%w (depth %d)", ErrQueueFull, s.cfg.QueueDepth)
	}
	j := &job{
		id:        fmt.Sprintf("j-%06d", s.seq),
		spec:      spec,
		specFP:    spec.Fingerprint(),
		state:     StateQueued,
		submitted: time.Now(),
	}
	s.seq++
	if opt.DeadlineMS > 0 {
		j.deadline = time.Duration(opt.DeadlineMS) * time.Millisecond
	}
	if err := s.journal.append(rec{
		Op: opSubmit, ID: j.id, Spec: &j.spec, SpecFP: j.specFP, DeadlineMS: j.deadline.Milliseconds(),
	}); err != nil {
		return JobView{}, err
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.queue = append(s.queue, j)
	s.m.submitted.Add(1)
	s.cond.Signal()
	return j.view(), nil
}

// Get returns a job snapshot.
func (s *Service) Get(id string) (JobView, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobView{}, ErrNotFound
	}
	return j.view(), nil
}

// List returns every known job in submission order.
func (s *Service) List() []JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobView, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].view())
	}
	return out
}

// Ready reports whether the service accepts work.
func (s *Service) Ready() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.started && !s.draining && !s.closed
}

// workerLoop claims and runs jobs until drain or close.
func (s *Service) workerLoop() {
	defer func() {
		s.mu.Lock()
		s.liveWorkers--
		s.cond.Broadcast()
		s.mu.Unlock()
	}()
	for {
		j, ctx := s.take()
		if j == nil {
			return
		}
		res, err := s.invoke(ctx, j)
		s.settle(j, res, err)
	}
}

// take blocks until a job is available (or the service stops admitting
// work) and claims it, with the context its run stops on.
func (s *Service) take() (*job, context.Context) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.draining && !s.closed && len(s.queue) == 0 {
		s.cond.Wait()
	}
	if s.draining || s.closed {
		return nil, nil
	}
	j := s.queue[0]
	s.queue = s.queue[1:]
	j.state = StateRunning
	if j.started.IsZero() {
		j.started = time.Now()
	}
	var ctx context.Context
	if j.deadline > 0 {
		ctx, j.cancel = context.WithTimeout(s.baseCtx, j.deadline)
	} else {
		ctx, j.cancel = context.WithCancel(s.baseCtx)
	}
	s.running++
	s.m.started.Add(1)
	return j, ctx
}

// invoke runs the job with panic isolation: a panicking simulation
// fails that job instead of killing the worker.
func (s *Service) invoke(ctx context.Context, j *job) (res exp.RunResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			s.m.panics.Add(1)
			err = fmt.Errorf("job %s panicked: %v\n%s", j.id, p, debug.Stack())
		}
	}()
	return s.cfg.Runner(ctx, j.spec, s.cfg.Exec)
}

// settle records a run's outcome, which is final unless a drain or a
// shutdown interrupted the run: that job goes back on the queue. A run
// does no I/O, so the same spec would fail the same way again.
func (s *Service) settle(j *job, res exp.RunResult, err error) {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	j.cancel()
	j.cancel = nil
	s.running--
	s.cond.Broadcast() // a drain's grace waits for running to reach 0

	switch {
	case err == nil:
		j.state = StateDone
		j.result = &res
		j.finished = now
		s.m.completed.Add(1)
		s.m.latencyNS.Add(now.Sub(j.submitted).Nanoseconds())
		s.appendBestEffort(rec{Op: opDone, ID: j.id, ResultFP: res.Fingerprint,
			ShareHi: res.ShareHi, TotalBPC: res.TotalBPC})

	case errors.Is(err, context.Canceled) && s.draining:
		// Cancelled by drain or shutdown (only those cancel a run): requeue;
		// the rerun builds and warms a fresh machine. The submit record
		// already keeps the job live in the journal.
		j.state = StateQueued
		j.requeues++
		s.m.requeued.Add(1)
		s.queue = append(s.queue, j)

	case errors.Is(err, context.DeadlineExceeded):
		// The job's own deadline fired.
		j.state = StateCanceled
		j.errMsg = err.Error()
		j.finished = now
		s.m.canceled.Add(1)
		s.appendBestEffort(rec{Op: opCancel, ID: j.id, Err: err.Error()})

	default:
		s.failLocked(j, err, now)
	}
}

// failLocked finishes a job as failed.
func (s *Service) failLocked(j *job, err error, now time.Time) {
	j.state = StateFailed
	j.errMsg = err.Error()
	j.finished = now
	s.m.failed.Add(1)
	s.appendBestEffort(rec{Op: opFail, ID: j.id, Err: err.Error()})
}

// appendBestEffort journals a post-admission record. Losing one is
// safe — recovery falls back to the submit record and re-runs the job,
// which at-least-once semantics already permit — so errors are counted,
// not propagated.
func (s *Service) appendBestEffort(r rec) {
	if err := s.journal.append(r); err != nil {
		s.m.journalErrs.Add(1)
	}
}

// Drain gracefully shuts the service down: stop admission, let
// in-flight jobs finish for DrainGrace (or until ctx is done), cancel
// stragglers back onto the queue, wait for the pool to park,
// then compact the journal down to live jobs so a restart recovers
// exactly the unfinished work. A worker that has not parked when ctx is
// done is left running: Drain returns an error naming its job and
// wrapping ctx.Err(), and that job stays live in the journal.
func (s *Service) Drain(ctx context.Context) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	first := !s.draining
	s.draining = true
	s.cond.Broadcast()

	if first {
		// Grace period: wait for the pool to go idle on its own.
		grace, cancel := context.WithTimeout(ctx, s.cfg.DrainGrace)
		s.awaitLocked(grace, func() bool { return s.running == 0 })
		cancel()
		// Cancel whatever is still running; settle requeues each run.
		for _, j := range s.jobs {
			if j.cancel != nil {
				j.cancel()
			}
		}
	}
	if !s.awaitLocked(ctx, func() bool { return s.liveWorkers == 0 }) {
		return s.stuckLocked("drain", ctx.Err())
	}
	return s.compactLocked()
}

// awaitLocked waits on s.cond, with s.mu held, until done holds or ctx
// is done, and reports whether done holds.
func (s *Service) awaitLocked(ctx context.Context, done func() bool) bool {
	stop := context.AfterFunc(ctx, func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer stop()
	for !done() && ctx.Err() == nil {
		s.cond.Wait()
	}
	return done()
}

// stuckLocked is the error for workers that did not park before a stop
// gave up on them: how many, and the jobs they hold, which stay live in
// the journal.
func (s *Service) stuckLocked(op string, err error) error {
	var ids []string
	for _, id := range s.order {
		if s.jobs[id].state == StateRunning {
			ids = append(ids, id)
		}
	}
	return fmt.Errorf("serve: %s: %d workers still running %v: %w", op, s.liveWorkers, ids, err)
}

// compactLocked rewrites the journal to hold only live (non-terminal)
// jobs, one submit record each. After a clean drain with no pending
// work the journal is empty.
func (s *Service) compactLocked() error {
	var recs []rec
	for _, id := range s.order {
		j := s.jobs[id]
		if j.state.Terminal() {
			continue
		}
		recs = append(recs, rec{
			Op: opSubmit, ID: j.id, Spec: &j.spec, SpecFP: j.specFP,
			DeadlineMS: j.deadline.Milliseconds(),
		})
	}
	return s.journal.rewrite(recs)
}

// Close hard-stops the service: Drain's stop path with no grace. It
// cancels every run, waits at most DrainGrace for the workers to park,
// journals the survivors and releases the journal. In-flight jobs are
// requeued as in a drain. A worker still running when the wait ends is
// left running: Close returns an error naming its job, which stays
// live in the journal.
func (s *Service) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	s.draining = true
	s.cond.Broadcast()
	s.baseCancel()

	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainGrace)
	defer cancel()
	var stuck error
	if !s.awaitLocked(ctx, func() bool { return s.liveWorkers == 0 }) {
		stuck = s.stuckLocked("close", ctx.Err())
	}
	return errors.Join(stuck, s.compactLocked(), s.journal.close())
}

// Counts summarizes job states for health endpoints and tests.
func (s *Service) Counts() map[JobState]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[JobState]int)
	for _, j := range s.jobs {
		out[j.state]++
	}
	return out
}
