package failure

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
)

func TestClassifyContextErrors(t *testing.T) {
	if err := Classify(context.DeadlineExceeded); !errors.Is(err, ErrBudget) {
		t.Fatalf("deadline classified as %v, want ErrBudget", err)
	}
	// The original cause must survive classification for errors.Is.
	if err := Classify(context.DeadlineExceeded); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("classification dropped the context cause: %v", err)
	}
	if err := Classify(context.Canceled); !errors.Is(err, ErrCancelled) {
		t.Fatalf("cancel classified as %v, want ErrCancelled", err)
	}
	if Classify(nil) != nil {
		t.Fatal("nil must classify to nil")
	}
	domain := errors.New("domain")
	if Classify(domain) != domain {
		t.Fatal("domain errors must pass through unchanged")
	}
	// Already-classified errors must not be double wrapped.
	pre := fmt.Errorf("stagey: %w", ErrInfeasible)
	if Classify(pre) != pre {
		t.Fatal("pre-classified errors must pass through")
	}
}

func TestStageAttribution(t *testing.T) {
	err := Stage("clustering", context.DeadlineExceeded)
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget in chain", err)
	}
	if StageOf(err) != "clustering" {
		t.Fatalf("StageOf = %q, want clustering", StageOf(err))
	}
	var se *StageError
	if !errors.As(err, &se) || se.Stage != "clustering" {
		t.Fatalf("errors.As StageError failed on %v", err)
	}
	if Stage("x", nil) != nil {
		t.Fatal("Stage(nil) must be nil")
	}
	if StageOf(errors.New("plain")) != "" {
		t.Fatal("StageOf on a plain error must be empty")
	}
}

func TestPredicates(t *testing.T) {
	if !IsBudget(context.DeadlineExceeded) || !IsBudget(fmt.Errorf("w: %w", ErrBudget)) {
		t.Fatal("IsBudget must match both the sentinel and raw deadline errors")
	}
	if !IsCancelled(context.Canceled) || !IsCancelled(fmt.Errorf("w: %w", ErrCancelled)) {
		t.Fatal("IsCancelled must match both the sentinel and raw cancel errors")
	}
	if IsBudget(ErrInfeasible) || IsCancelled(ErrBudget) {
		t.Fatal("predicates must not cross-match")
	}
}

func TestPanicError(t *testing.T) {
	pe := NewPanic(3, "boom", []byte("stack-trace"))
	var got *PanicError
	wrapped := Stage("clustermap", pe)
	if !errors.As(wrapped, &got) || got.Index != 3 {
		t.Fatalf("PanicError lost through Stage: %v", wrapped)
	}
	msg := pe.Error()
	for _, want := range []string{"task 3", "boom", "stack-trace"} {
		if !contains(msg, want) {
			t.Fatalf("panic message %q missing %q", msg, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestClassRoundTrip: a failure survives a process boundary — every
// class rebuilds into an error of the same class.
func TestClassRoundTrip(t *testing.T) {
	for _, c := range []string{ClassBudget, ClassCancelled, ClassInfeasible, ClassLowerFailed, ClassPanic, ClassInternal} {
		err := FromClass(c, "m")
		if got := ClassOf(err); got != c {
			t.Errorf("ClassOf(FromClass(%q)) = %q", c, got)
		}
		if !strings.Contains(err.Error(), "m") {
			t.Errorf("FromClass(%q) dropped the message: %v", c, err)
		}
	}
	if !IsBudget(FromClass(ClassBudget, "m")) || !IsInfeasible(FromClass(ClassInfeasible, "m")) {
		t.Fatal("a rebuilt error must carry its class's sentinel")
	}
	if got := ClassOf(FromClass("no-such-class", "m")); got != ClassInternal {
		t.Fatalf("unknown class rebuilt as %q, want internal", got)
	}
}

// TestClassOf holds ClassOf to the bucketing the service layer used to
// spell out itself (its failureClass), on the errors its HTTP tests
// build and on the raw context errors a worker can return.
func TestClassOf(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want string
	}{
		{Stage("clustermap", ErrInfeasible), ClassInfeasible},
		{Stage("lower", ErrBudget), ClassBudget},
		{Stage("pipeline", ErrCancelled), ClassCancelled},
		{fmt.Errorf("boom: %w", ErrLowerFailed), ClassLowerFailed},
		{Stage("clustermap", fmt.Errorf("no mapping: %w", ErrInfeasible)), ClassInfeasible},
		{context.DeadlineExceeded, ClassBudget},
		{fmt.Errorf("w: %w", context.Canceled), ClassCancelled},
		// Budget wins over cancellation, as IsBudget was checked first.
		{fmt.Errorf("%w: %w", ErrCancelled, context.DeadlineExceeded), ClassBudget},
		{NewPanic(3, "v", nil), ClassPanic},
		{fmt.Errorf("task: %w", NewPanic(-1, "v", nil)), ClassPanic},
		{ErrPeerDown, ClassInternal},
		{errors.New("plain"), ClassInternal},
	} {
		if got := ClassOf(tc.err); got != tc.want {
			t.Errorf("ClassOf(%v) = %q, want %q", tc.err, got, tc.want)
		}
	}
}
