package exp

import (
	"context"
	"errors"
	"fmt"

	"pabst/internal/config"
)

// FailureClass partitions run failures by what a supervisor should do
// with the job that produced them. The taxonomy is deliberately small:
// a scheduler only ever chooses between retrying, giving up, and
// recording a cancellation.
type FailureClass int

const (
	// FailNone reports a nil error: the run succeeded.
	FailNone FailureClass = iota
	// FailRetryable marks transient failures — I/O hiccups, a panicking
	// simulation attempt. A fresh attempt of the same spec can succeed.
	FailRetryable
	// FailTerminal marks deterministic failures — an invalid
	// configuration or spec.
	// Retrying reproduces the same error; the job should fail fast.
	FailTerminal
	// FailCanceled marks runs stopped by the caller's context, whether
	// an explicit cancellation or an expired deadline.
	FailCanceled
)

// String names the class for logs and journals.
func (c FailureClass) String() string {
	switch c {
	case FailNone:
		return "none"
	case FailRetryable:
		return "retryable"
	case FailTerminal:
		return "terminal"
	case FailCanceled:
		return "canceled"
	default:
		return fmt.Sprintf("FailureClass(%d)", int(c))
	}
}

// Marker errors for explicit classification. Wrap with Retryable or
// Terminal when the failure site knows better than the default rules.
var (
	// ErrRetryable marks an error a supervisor may retry.
	ErrRetryable = errors.New("exp: retryable failure")
	// ErrTerminal marks an error no retry can fix.
	ErrTerminal = errors.New("exp: terminal failure")
)

// Retryable wraps err so Classify reports FailRetryable. Nil-safe.
func Retryable(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%w: %w", ErrRetryable, err)
}

// Terminal wraps err so Classify reports FailTerminal. Nil-safe.
func Terminal(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%w: %w", ErrTerminal, err)
}

// Classify maps an error from a sweep run onto the failure taxonomy.
// Explicit markers win, then context cancellation, then config
// validation's typed error. Unknown errors default to retryable — for a
// supervisor the safe assumption about an unclassified failure (disk,
// network, scheduling) is that it is transient; genuinely deterministic
// failures repeat and exhaust the attempt budget anyway.
func Classify(err error) FailureClass {
	switch {
	case err == nil:
		return FailNone
	case errors.Is(err, ErrTerminal):
		return FailTerminal
	case errors.Is(err, ErrRetryable):
		return FailRetryable
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return FailCanceled
	case errors.Is(err, config.ErrInvalid):
		return FailTerminal
	default:
		return FailRetryable
	}
}
