package serve

import (
	"context"
	"time"

	"pabst/internal/exp"
)

// JobState names a job's position in its lifecycle.
type JobState string

const (
	// StateQueued: admitted (or recovered/requeued) and waiting for a
	// worker.
	StateQueued JobState = "queued"
	// StateRunning: claimed by a worker, simulation in progress.
	StateRunning JobState = "running"
	// StateBackoff: a retryable attempt failed; the job re-enters the
	// queue when its backoff timer fires.
	StateBackoff JobState = "backoff"
	// StateDone: completed with a result. Terminal.
	StateDone JobState = "done"
	// StateFailed: exhausted its attempt budget or hit a terminal
	// failure. Terminal.
	StateFailed JobState = "failed"
	// StateCanceled: stopped by its per-job deadline. Terminal.
	StateCanceled JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Cancellation causes a supervisor stamps on a job before cancelling
// its context, so settlement can tell a drain from a wedge from a
// deadline.
const (
	causeDrain = "drain"
	causeWedge = "wedge"
)

// job is the service's internal record. All fields except runToken's
// reads inside the owning worker are guarded by Service.mu.
type job struct {
	id          string
	spec        exp.RunSpec
	specFP      string
	maxAttempts int
	deadline    time.Duration

	state    JobState
	attempt  int // attempts started (wedge abandons count; drain requeues don't)
	requeues int // times put back on the queue by drain/wedge/recovery

	result    *exp.RunResult
	errMsg    string
	failClass exp.FailureClass

	submitted time.Time
	started   time.Time
	finished  time.Time

	// runToken is the ownership epoch: bumped whenever the job leaves a
	// worker's hands so a stale (abandoned) worker's outcome is discarded.
	runToken uint64
	// cancel stops the current attempt; cancelCause records who pulled
	// the trigger (causeDrain/causeWedge, "" for deadline or shutdown).
	cancel      context.CancelFunc
	cancelCause string
	// backoff is the pending retry timer while state == StateBackoff.
	backoff *time.Timer
}

// JobView is the externally visible snapshot of a job, JSON-ready for
// the REST layer.
type JobView struct {
	ID              string         `json:"id"`
	Spec            exp.RunSpec    `json:"spec"`
	SpecFingerprint string         `json:"spec_fingerprint"`
	State           JobState       `json:"state"`
	Attempt         int            `json:"attempt"`
	MaxAttempts     int            `json:"max_attempts"`
	Requeues        int            `json:"requeues"`
	Result          *exp.RunResult `json:"result,omitempty"`
	Error           string         `json:"error,omitempty"`
	FailureClass    string         `json:"failure_class,omitempty"`
	SubmittedAt     time.Time      `json:"submitted_at"`
	StartedAt       *time.Time     `json:"started_at,omitempty"`
	FinishedAt      *time.Time     `json:"finished_at,omitempty"`
}

// view renders the job under Service.mu.
func (j *job) view() JobView {
	v := JobView{
		ID:              j.id,
		Spec:            j.spec,
		SpecFingerprint: j.specFP,
		State:           j.state,
		Attempt:         j.attempt,
		MaxAttempts:     j.maxAttempts,
		Requeues:        j.requeues,
		Error:           j.errMsg,
		SubmittedAt:     j.submitted,
	}
	if j.result != nil {
		r := *j.result
		v.Result = &r
	}
	if j.failClass != exp.FailNone {
		v.FailureClass = j.failClass.String()
	}
	if !j.started.IsZero() {
		t := j.started
		v.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.FinishedAt = &t
	}
	return v
}
