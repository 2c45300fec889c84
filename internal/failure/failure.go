// Package failure is the pipeline-wide error taxonomy. Every stage of
// the Panorama pipeline reports its failures through the sentinel
// errors below so that callers — the CLIs, the benchmark harness, a
// service wrapping the mapper — can branch on the *class* of failure
// with errors.Is/As instead of string matching:
//
//   - ErrBudget: the run's wall-clock deadline fired. The run aborts:
//     core returns its partial result next to this error for
//     diagnostics, never a mapping the clock settled for.
//   - ErrCancelled: the caller's context was cancelled. Nothing about
//     the input is wrong; retrying with more time is sensible.
//   - ErrInfeasible: the instance itself admits no solution under the
//     current constraints (e.g. no feasible cluster mapping at any ζ).
//     Retrying with the same configuration is pointless.
//   - ErrLowerFailed: the lower-level mapper failed with a hard error
//     on every rung of the degradation ladder.
//   - ErrPeerDown: the cluster peer owning a sharded computation was
//     unreachable; the work is expected to fall back to local
//     execution.
//
// StageError attributes a classified failure to the pipeline stage
// that produced it; PanicError preserves a recovered panic (task
// index, value, stack) as an ordinary error so one bad kernel can
// never take down a whole process or harness run.
package failure

import (
	"context"
	"errors"
	"fmt"
)

// Sentinel errors of the failure taxonomy. Match with errors.Is.
var (
	ErrBudget      = errors.New("time budget exhausted")
	ErrInfeasible  = errors.New("infeasible")
	ErrCancelled   = errors.New("cancelled")
	ErrLowerFailed = errors.New("lower mapper failed")
	// ErrPeerDown classifies a cluster-peer failure: the owner of a
	// sharded computation could not be reached (or answered outside the
	// peer protocol). Nothing about the input is wrong; the caller is
	// expected to fall back to local execution or another peer.
	ErrPeerDown = errors.New("cluster peer down")
)

// StageError attributes a failure to a named pipeline stage
// ("clustering", "clustermap", "lower", "pipeline", ...).
type StageError struct {
	Stage string
	Err   error
}

// Error prefixes the cause with the stage that produced it.
func (e *StageError) Error() string { return e.Stage + ": " + e.Err.Error() }

// Unwrap exposes the classified cause to errors.Is/As.
func (e *StageError) Unwrap() error { return e.Err }

// Stage classifies err and attributes it to stage. A nil err returns
// nil so call sites can wrap unconditionally.
func Stage(stage string, err error) error {
	if err == nil {
		return nil
	}
	return &StageError{Stage: stage, Err: Classify(err)}
}

// StageOf returns the stage name err is attributed to, or "" when err
// carries no StageError.
func StageOf(err error) string {
	var se *StageError
	if errors.As(err, &se) {
		return se.Stage
	}
	return ""
}

// Classify maps an arbitrary error onto the taxonomy: context
// deadlines become ErrBudget, context cancellation becomes
// ErrCancelled, and errors already carrying a sentinel pass through
// unchanged. Other errors are returned as-is (they are domain errors
// the caller may still errors.As into).
func Classify(err error) error {
	if err == nil {
		return nil
	}
	for _, c := range classes {
		if errors.Is(err, c.sentinel) {
			return err
		}
	}
	for _, c := range classes {
		if c.raw != nil && errors.Is(err, c.raw) {
			return fmt.Errorf("%w: %w", c.sentinel, err)
		}
	}
	return err
}

// IsBudget reports whether err is a budget expiry (directly, via a
// wrapped sentinel, or as a raw context.DeadlineExceeded).
func IsBudget(err error) bool {
	return errors.Is(err, ErrBudget) || errors.Is(err, context.DeadlineExceeded)
}

// IsCancelled reports whether err is a caller cancellation.
func IsCancelled(err error) bool {
	return errors.Is(err, ErrCancelled) || errors.Is(err, context.Canceled)
}

// IsInfeasible reports whether err is a proven infeasibility.
func IsInfeasible(err error) bool {
	return errors.Is(err, ErrInfeasible)
}

// IsPeerDown reports whether err is an unreachable-cluster-peer
// failure.
func IsPeerDown(err error) bool {
	return errors.Is(err, ErrPeerDown)
}

// Failure classes: the taxonomy's one spelling outside the process —
// the class of an HTTP error body, the journal's failure note, the
// label a peer's error travels under. ClassOf and FromClass are the
// only mapping between them and the errors above.
const (
	ClassBudget      = "budget"
	ClassCancelled   = "cancelled"
	ClassInfeasible  = "infeasible"
	ClassLowerFailed = "lower-failed"
	ClassPanic       = "panic"    // a PanicError
	ClassInternal    = "internal" // everything else, ErrPeerDown included
)

// classes pairs each sentinel-backed class with its sentinel and the
// raw context error Classify folds into it, in ClassOf's precedence.
var classes = []struct {
	class    string
	sentinel error
	raw      error
}{
	{ClassBudget, ErrBudget, context.DeadlineExceeded},
	{ClassCancelled, ErrCancelled, context.Canceled},
	{ClassInfeasible, ErrInfeasible, nil},
	{ClassLowerFailed, ErrLowerFailed, nil},
}

// ClassOf buckets a non-nil error by the taxonomy.
func ClassOf(err error) string {
	for _, c := range classes {
		if errors.Is(err, c.sentinel) || (c.raw != nil && errors.Is(err, c.raw)) {
			return c.class
		}
	}
	var pe *PanicError
	if errors.As(err, &pe) {
		return ClassPanic
	}
	return ClassInternal
}

// FromClass rebuilds an error of the given class around msg, so that
// ClassOf(FromClass(c, msg)) == c: how a failure crosses a process
// boundary without losing its type. An unknown class is an internal
// error.
func FromClass(class, msg string) error {
	for _, c := range classes {
		if c.class == class {
			return fmt.Errorf("%w: %s", c.sentinel, msg)
		}
	}
	if class == ClassPanic {
		return NewPanic(-1, msg, nil)
	}
	return errors.New(msg)
}

// PanicError is a panic recovered at a pipeline or worker-pool
// boundary, preserved as an error. Index is the pool task index that
// panicked (-1 when the panic was not inside an indexed task).
type PanicError struct {
	Index int
	Value any
	Stack []byte
}

// NewPanic builds a PanicError from a recovered value and stack.
func NewPanic(index int, value any, stack []byte) *PanicError {
	return &PanicError{Index: index, Value: value, Stack: stack}
}

// Error renders the recovered value with its stack (and the pool task
// index when the panic happened inside a worker).
func (e *PanicError) Error() string {
	if e.Index >= 0 {
		return fmt.Sprintf("panic in task %d: %v\n%s", e.Index, e.Value, e.Stack)
	}
	return fmt.Sprintf("panic: %v\n%s", e.Value, e.Stack)
}
