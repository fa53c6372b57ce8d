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
	// StateDone: completed with a result. Terminal.
	StateDone JobState = "done"
	// StateFailed: the run returned an error or panicked. Terminal.
	StateFailed JobState = "failed"
	// StateCanceled: stopped by its per-job deadline. Terminal.
	StateCanceled JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// job is the service's internal record, guarded by Service.mu.
type job struct {
	id       string
	spec     exp.RunSpec
	specFP   string
	deadline time.Duration

	state    JobState
	requeues int // times a drain or shutdown put it back on the queue

	result *exp.RunResult
	errMsg string

	submitted time.Time
	started   time.Time
	finished  time.Time

	// cancel stops the current run; nil while no worker holds the job.
	cancel context.CancelFunc
}

// JobView is the externally visible snapshot of a job, JSON-ready for
// the REST layer.
type JobView struct {
	ID              string         `json:"id"`
	Spec            exp.RunSpec    `json:"spec"`
	SpecFingerprint string         `json:"spec_fingerprint"`
	State           JobState       `json:"state"`
	Requeues        int            `json:"requeues"`
	Result          *exp.RunResult `json:"result,omitempty"`
	Error           string         `json:"error,omitempty"`
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
		Requeues:        j.requeues,
		Error:           j.errMsg,
		SubmittedAt:     j.submitted,
	}
	if j.result != nil {
		r := *j.result
		v.Result = &r
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
