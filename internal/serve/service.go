package serve

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"pabst/internal/config"
	"pabst/internal/exp"
	"pabst/internal/fault"
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

// RunEnv is what the service hands a Runner alongside the spec: the
// execution environment and the liveness heartbeat the supervisor
// watches.
type RunEnv struct {
	Exec exp.Exec
	// Beat reports liveness; call it at least once per measured chunk.
	Beat func()
}

// Runner executes one job attempt. The default is ExpRunner; tests
// substitute fast fakes to exercise supervision without simulating.
type Runner func(ctx context.Context, spec exp.RunSpec, env RunEnv) (exp.RunResult, error)

// ExpRunner is the production Runner: exp.RunSpec.Run with the
// heartbeat wired in.
func ExpRunner(ctx context.Context, spec exp.RunSpec, env RunEnv) (exp.RunResult, error) {
	rio := exp.RunIO{}
	if env.Beat != nil {
		rio.Beat = func(done, total uint64) { env.Beat() }
	}
	return spec.Run(ctx, env.Exec, rio)
}

// Config parameterizes a Service. Zero values get sensible defaults
// from fill; only Dir is required.
type Config struct {
	// Dir is the service's state directory: the journal lives here.
	Dir string
	// QueueDepth bounds waiting jobs (queued + backoff); Submit rejects
	// with ErrQueueFull beyond it. Default 64.
	QueueDepth int
	// Workers is the worker-pool size. Default 2.
	Workers int
	// MaxAttempts bounds executions per job, counting retryable
	// failures and wedge abandons (not drain requeues). Default 3.
	MaxAttempts int
	// JobDeadline bounds one attempt's wall-clock time; 0 means none.
	JobDeadline time.Duration
	// BackoffBase and BackoffMax shape the exponential retry delay:
	// base<<(attempt-1), capped at max, plus deterministic jitter.
	// Defaults 200ms and 10s.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// HeartbeatTimeout is how long a running worker may go silent
	// before the supervisor cancels it, and again how long a cancelled
	// worker may linger before it is abandoned and replaced. Must
	// comfortably exceed one chunk of a run, a thirty-second of its
	// warmup or measure window. Default 60s.
	HeartbeatTimeout time.Duration
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
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 200 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 10 * time.Second
	}
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = 60 * time.Second
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

// worker is one pool member. beat is atomic (supervisor reads it
// without the service lock); everything else is guarded by Service.mu.
type worker struct {
	id   int
	beat atomic.Int64 // unix nanos of last sign of life

	cur      *job
	curToken uint64
	cancel   context.CancelFunc
	// abandoned marks a wedged worker whose job was reassigned; its
	// eventual outcome is discarded.
	abandoned bool
	// wedgeCancelAt records when the supervisor first cancelled this
	// worker for silence; zero while healthy.
	wedgeCancelAt time.Time
}

// SubmitOptions are per-job overrides of the service defaults.
type SubmitOptions struct {
	// MaxAttempts overrides Config.MaxAttempts when > 0.
	MaxAttempts int `json:"max_attempts,omitempty"`
	// Deadline overrides Config.JobDeadline when > 0.
	Deadline time.Duration `json:"-"`
	// DeadlineMS is the REST-facing form of Deadline.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// Service is the supervised sweep job system. See the package comment
// for the full contract.
type Service struct {
	cfg Config

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu      sync.Mutex
	cond    *sync.Cond // queue pushes, drain/close transitions, worker exits
	queue   []*job     // FIFO of StateQueued jobs
	jobs    map[string]*job
	order   []string // submission order, for List and compaction
	seq     uint64
	backoff int // jobs in StateBackoff (part of the admission bound)

	started  bool
	draining bool
	closed   bool

	workers      map[int]*worker
	nextWorkerID int
	liveWorkers  int
	supStop      chan struct{}
	supDone      chan struct{}
	supOnce      sync.Once

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
		workers: make(map[int]*worker),
		supStop: make(chan struct{}),
		supDone: make(chan struct{}),
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

// checkFault is the service's trust boundary on RunSpec.Fault: over
// REST, and in a journal another process may have written, a fault plan
// is named by preset. RunSpec.Validate resolves any other value as a
// path and reads it (a plan file is a CLI convenience), so this runs
// before Validate, and before a recovered job can reach a runner.
func checkFault(spec exp.RunSpec) error {
	if spec.Fault == "" {
		return nil
	}
	if _, err := fault.Preset(spec.Fault); err != nil {
		return exp.Terminal(fmt.Errorf("%w: %w", config.ErrInvalid, err))
	}
	return nil
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
				id:          r.ID,
				spec:        *r.Spec,
				specFP:      r.Spec.Fingerprint(),
				maxAttempts: r.MaxAttempts,
				deadline:    time.Duration(r.DeadlineMS) * time.Millisecond,
				state:       StateQueued,
				submitted:   time.Now(),
			}
			if j.maxAttempts <= 0 {
				j.maxAttempts = s.cfg.MaxAttempts
			}
			s.jobs[r.ID] = j
			s.order = append(s.order, r.ID)
			if err := checkFault(j.spec); err != nil {
				s.failLocked(j, err, j.submitted)
			}
		case opRequeue:
			if j := s.jobs[r.ID]; j != nil && !j.state.Terminal() {
				j.attempt = r.Attempt
				j.state = StateQueued
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
				j.failClass = exp.FailTerminal
			}
		case opCancel:
			if j := s.jobs[r.ID]; j != nil {
				j.state = StateCanceled
				j.errMsg = r.Err
				j.failClass = exp.FailCanceled
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

// Start launches the worker pool and the supervisor.
func (s *Service) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started || s.closed {
		return
	}
	s.started = true
	for i := 0; i < s.cfg.Workers; i++ {
		s.spawnWorkerLocked()
	}
	go s.supervise()
}

func (s *Service) spawnWorkerLocked() {
	w := &worker{id: s.nextWorkerID}
	s.nextWorkerID++
	w.beat.Store(time.Now().UnixNano())
	s.workers[w.id] = w
	s.liveWorkers++
	go s.workerLoop(w)
}

// Submit validates, journals, and enqueues a job. The journal append
// happens before the job becomes visible: once Submit returns, the job
// survives a crash.
func (s *Service) Submit(spec exp.RunSpec, opt SubmitOptions) (JobView, error) {
	if err := checkFault(spec); err != nil {
		return JobView{}, err
	}
	if err := spec.Validate(); err != nil {
		return JobView{}, err
	}
	if _, err := s.cfg.Exec.Scale(spec.Scale); err != nil {
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
	if len(s.queue)+s.backoff >= s.cfg.QueueDepth {
		s.m.rejected.Add(1)
		return JobView{}, fmt.Errorf("%w (depth %d)", ErrQueueFull, s.cfg.QueueDepth)
	}
	j := &job{
		id:          fmt.Sprintf("j-%06d", s.seq),
		spec:        spec,
		specFP:      spec.Fingerprint(),
		maxAttempts: s.cfg.MaxAttempts,
		deadline:    s.cfg.JobDeadline,
		state:       StateQueued,
		submitted:   time.Now(),
	}
	s.seq++
	if opt.MaxAttempts > 0 {
		j.maxAttempts = opt.MaxAttempts
	}
	if opt.Deadline > 0 {
		j.deadline = opt.Deadline
	} else if opt.DeadlineMS > 0 {
		j.deadline = time.Duration(opt.DeadlineMS) * time.Millisecond
	}
	if err := s.journal.append(rec{
		Op: opSubmit, ID: j.id, Spec: &j.spec, SpecFP: j.specFP,
		MaxAttempts: j.maxAttempts, DeadlineMS: j.deadline.Milliseconds(),
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
func (s *Service) workerLoop(w *worker) {
	defer func() {
		s.mu.Lock()
		if !w.abandoned {
			delete(s.workers, w.id)
			s.liveWorkers--
		}
		s.cond.Broadcast()
		s.mu.Unlock()
	}()
	for {
		j, ctx, cancel := s.take(w)
		if j == nil {
			return
		}
		res, err := s.invoke(ctx, w, j)
		cancel()
		s.settle(w, j, res, err)
	}
}

// take blocks until a job is available (or the service stops admitting
// work) and claims it for w.
func (s *Service) take(w *worker) (*job, context.Context, context.CancelFunc) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.draining && !s.closed && len(s.queue) == 0 {
		s.cond.Wait()
	}
	if s.draining || s.closed || w.abandoned {
		return nil, nil, nil
	}
	j := s.queue[0]
	s.queue = s.queue[1:]
	j.state = StateRunning
	j.attempt++
	if j.started.IsZero() {
		j.started = time.Now()
	}
	var ctx context.Context
	var cancel context.CancelFunc
	if j.deadline > 0 {
		ctx, cancel = context.WithTimeout(s.baseCtx, j.deadline)
	} else {
		ctx, cancel = context.WithCancel(s.baseCtx)
	}
	j.cancel = cancel
	j.cancelCause = ""
	w.cur = j
	w.curToken = j.runToken
	w.cancel = cancel
	w.wedgeCancelAt = time.Time{}
	w.beat.Store(time.Now().UnixNano())
	s.m.started.Add(1)
	return j, ctx, cancel
}

// invoke runs one attempt with panic isolation: a panicking simulation
// fails that job retryably instead of killing the worker.
func (s *Service) invoke(ctx context.Context, w *worker, j *job) (res exp.RunResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			s.m.panics.Add(1)
			err = exp.Retryable(fmt.Errorf("job %s attempt %d panicked: %v\n%s",
				j.id, j.attempt, p, debug.Stack()))
		}
	}()
	env := RunEnv{
		Exec: s.cfg.Exec,
		Beat: func() { w.beat.Store(time.Now().UnixNano()) },
	}
	return s.cfg.Runner(ctx, j.spec, env)
}

// settle records one attempt's outcome and decides the job's next hop:
// done, failed, canceled, backoff-retry, or requeue.
func (s *Service) settle(w *worker, j *job, res exp.RunResult, err error) {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()

	if w.abandoned || j.runToken != w.curToken {
		// The supervisor reassigned this job while we were wedged; our
		// outcome lost the race and is discarded.
		w.cur = nil
		w.cancel = nil
		return
	}
	w.cur = nil
	w.cancel = nil
	j.cancel = nil
	j.runToken++
	cause := j.cancelCause
	j.cancelCause = ""

	switch {
	case err == nil:
		j.state = StateDone
		j.result = &res
		j.errMsg = ""
		j.failClass = exp.FailNone
		j.finished = now
		s.m.completed.Add(1)
		s.m.latencyNS.Add(now.Sub(j.submitted).Nanoseconds())
		s.appendBestEffort(rec{Op: opDone, ID: j.id, ResultFP: res.Fingerprint,
			ShareHi: res.ShareHi, TotalBPC: res.TotalBPC})

	case exp.Classify(err) == exp.FailCanceled && (cause != "" || s.draining || s.closed):
		// Cancelled by drain/shutdown (or a wedge the run then noticed):
		// requeue; the rerun builds and warms a fresh machine.
		if cause == causeWedge && j.attempt >= j.maxAttempts {
			s.failLocked(j, fmt.Errorf("attempt %d/%d wedged: %w", j.attempt, j.maxAttempts, err), now)
			return
		}
		s.requeueLocked(j, cause)

	case exp.Classify(err) == exp.FailCanceled:
		// The job's own deadline fired.
		j.state = StateCanceled
		j.errMsg = err.Error()
		j.failClass = exp.FailCanceled
		j.finished = now
		s.m.canceled.Add(1)
		s.appendBestEffort(rec{Op: opCancel, ID: j.id, Err: err.Error()})

	case exp.Classify(err) == exp.FailTerminal:
		s.failLocked(j, err, now)

	default: // retryable
		if j.attempt >= j.maxAttempts {
			s.failLocked(j, fmt.Errorf("attempt %d/%d: %w", j.attempt, j.maxAttempts, err), now)
			return
		}
		j.state = StateBackoff
		j.errMsg = err.Error()
		j.failClass = exp.FailRetryable
		s.backoff++
		s.m.retried.Add(1)
		delay := s.backoffDelay(j.id, j.attempt)
		s.appendBestEffort(rec{Op: opRequeue, ID: j.id, Attempt: j.attempt})
		j.backoff = time.AfterFunc(delay, func() { s.wakeFromBackoff(j) })
	}
}

// failLocked finishes a job as failed.
func (s *Service) failLocked(j *job, err error, now time.Time) {
	j.state = StateFailed
	j.errMsg = err.Error()
	j.failClass = exp.Classify(err)
	j.finished = now
	s.m.failed.Add(1)
	s.appendBestEffort(rec{Op: opFail, ID: j.id, Err: err.Error(), Class: j.failClass.String()})
}

// requeueLocked puts a drained or wedged job back on the queue,
// journaling its attempt count so a restart keeps the budget.
func (s *Service) requeueLocked(j *job, cause string) {
	j.state = StateQueued
	j.requeues++
	if cause == causeDrain || cause == "" {
		// Shutdown requeues don't consume the attempt budget: the job did
		// nothing wrong.
		j.attempt--
	}
	s.m.requeued.Add(1)
	s.appendBestEffort(rec{Op: opRequeue, ID: j.id, Attempt: j.attempt})
	s.queue = append(s.queue, j)
	s.cond.Signal()
}

// wakeFromBackoff moves a job from backoff to the queue when its timer
// fires.
func (s *Service) wakeFromBackoff(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.state != StateBackoff {
		return
	}
	j.state = StateQueued
	j.backoff = nil
	s.backoff--
	s.queue = append(s.queue, j)
	s.cond.Signal()
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

// backoffDelay is base<<(attempt-1) capped at max, plus a deterministic
// jitter in [0, base) derived from the job id and attempt — spreads
// thundering herds without nondeterministic randomness.
func (s *Service) backoffDelay(id string, attempt int) time.Duration {
	d := s.cfg.BackoffBase
	for i := 1; i < attempt && d < s.cfg.BackoffMax; i++ {
		d *= 2
	}
	if d > s.cfg.BackoffMax {
		d = s.cfg.BackoffMax
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d", id, attempt)
	jitter := time.Duration(h.Sum64() % uint64(s.cfg.BackoffBase))
	return d + jitter
}

// supervise watches worker heartbeats. A worker silent past
// HeartbeatTimeout gets its job's context cancelled (cause=wedge); if
// it stays silent for another full timeout after that, it is abandoned
// — its job is reassigned (or failed, if out of attempts) and a
// replacement worker spawned. The abandoned goroutine's eventual
// outcome is discarded via the run token.
func (s *Service) supervise() {
	defer close(s.supDone)
	interval := s.cfg.HeartbeatTimeout / 4
	if interval < 5*time.Millisecond {
		interval = 5 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.supStop:
			return
		case <-t.C:
		}
		now := time.Now()
		s.mu.Lock()
		for _, w := range s.workers {
			if w.cur == nil || w.abandoned {
				continue
			}
			silent := now.Sub(time.Unix(0, w.beat.Load()))
			if silent <= s.cfg.HeartbeatTimeout {
				w.wedgeCancelAt = time.Time{}
				continue
			}
			if w.wedgeCancelAt.IsZero() {
				w.cur.cancelCause = causeWedge
				w.wedgeCancelAt = now
				s.m.wedgeCancels.Add(1)
				if w.cancel != nil {
					w.cancel()
				}
				continue
			}
			if now.Sub(w.wedgeCancelAt) <= s.cfg.HeartbeatTimeout {
				continue
			}
			// Cancellation was ignored: the goroutine is truly stuck.
			// Strip its job, replace the worker, leave the husk to rot.
			j := w.cur
			w.abandoned = true
			delete(s.workers, w.id)
			s.liveWorkers--
			j.runToken++
			j.cancel = nil
			j.cancelCause = ""
			s.m.workerRestarts.Add(1)
			if j.attempt >= j.maxAttempts {
				s.failLocked(j, exp.Retryable(fmt.Errorf("job %s wedged worker %d (silent %v)",
					j.id, w.id, silent.Round(time.Millisecond))), now)
			} else {
				s.requeueLocked(j, causeWedge)
			}
			if !s.draining && !s.closed {
				s.spawnWorkerLocked()
			}
			s.cond.Broadcast()
		}
		s.mu.Unlock()
	}
}

// Drain gracefully shuts the service down: stop admission, let
// in-flight jobs finish for DrainGrace (or until ctx is done), cancel
// stragglers back onto the queue, wait for the pool to park,
// then compact the journal down to live jobs so a restart recovers
// exactly the unfinished work.
func (s *Service) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	first := !s.draining
	s.draining = true
	s.cond.Broadcast()
	s.mu.Unlock()

	if first {
		// Grace period: poll for the pool going idle naturally.
		deadline := time.NewTimer(s.cfg.DrainGrace)
		defer deadline.Stop()
	grace:
		for {
			if s.inflight() == 0 {
				break
			}
			select {
			case <-deadline.C:
				break grace
			case <-ctx.Done():
				break grace
			case <-time.After(2 * time.Millisecond):
			}
		}
		// Cancel whatever is still running; settle requeues each run.
		s.mu.Lock()
		for _, w := range s.workers {
			if w.cur != nil && w.cancel != nil {
				w.cur.cancelCause = causeDrain
				w.cancel()
			}
		}
		s.mu.Unlock()
	}

	// Wait for every worker to settle and exit.
	s.mu.Lock()
	for s.liveWorkers > 0 {
		s.cond.Wait()
	}
	// Flush backoff timers: those jobs persist as queued.
	for _, id := range s.order {
		j := s.jobs[id]
		if j.state == StateBackoff {
			if j.backoff != nil {
				j.backoff.Stop()
				j.backoff = nil
			}
			j.state = StateQueued
			s.backoff--
		}
	}
	err := s.compactLocked()
	s.mu.Unlock()

	s.stopSupervisor()
	return err
}

func (s *Service) inflight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, w := range s.workers {
		if w.cur != nil && !w.abandoned {
			n++
		}
	}
	return n
}

func (s *Service) stopSupervisor() {
	s.supOnce.Do(func() { close(s.supStop) })
	s.mu.Lock()
	started := s.started
	s.mu.Unlock()
	if started {
		<-s.supDone
	}
}

// compactLocked rewrites the journal to hold only live (non-terminal)
// jobs: one submit record each, plus a requeue record carrying the
// attempt count when it is not zero. After a clean drain with no pending
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
			MaxAttempts: j.maxAttempts, DeadlineMS: j.deadline.Milliseconds(),
		})
		if j.attempt > 0 {
			recs = append(recs, rec{Op: opRequeue, ID: j.id, Attempt: j.attempt})
		}
	}
	return s.journal.rewrite(recs)
}

// Close hard-stops the service: cancel everything, wait for workers,
// journal the survivors, release the journal. In-flight jobs are
// requeued as in a drain, just without the grace period.
func (s *Service) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.draining = true
	s.cond.Broadcast()
	s.mu.Unlock()

	s.baseCancel()

	s.mu.Lock()
	for s.liveWorkers > 0 {
		s.cond.Wait()
	}
	for _, id := range s.order {
		j := s.jobs[id]
		if j.backoff != nil {
			j.backoff.Stop()
			j.backoff = nil
		}
		if j.state == StateBackoff {
			j.state = StateQueued
			s.backoff--
		}
	}
	err := s.compactLocked()
	cerr := s.journal.close()
	s.mu.Unlock()

	s.stopSupervisor()
	if err != nil {
		return err
	}
	return cerr
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
