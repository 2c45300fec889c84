package core

import "panorama/internal/failure"

// The pipeline's typed failure taxonomy, re-exported from
// internal/failure so callers of core never import the leaf package.
// All of them match with errors.Is; StageError additionally carries
// which pipeline stage failed and matches with errors.As.
var (
	// ErrBudget: a wall-clock budget fired (Config.Budgets.Total or the
	// caller's context deadline).
	ErrBudget = failure.ErrBudget
	// ErrInfeasible: the instance is unmappable under the given
	// constraints — no partition, no feasible cluster mapping, or an
	// ILP proven infeasible at every escalation.
	ErrInfeasible = failure.ErrInfeasible
	// ErrCancelled: the caller's context was cancelled.
	ErrCancelled = failure.ErrCancelled
	// ErrLowerFailed: the lower-level mapper failed after the whole
	// degradation ladder (guided → relaxed → unguided) was exhausted.
	ErrLowerFailed = failure.ErrLowerFailed
)

// StageError attributes a pipeline failure to the stage that produced
// it ("clustering", "clustermap", "lower", ...). Extract it with
// errors.As, or just the stage name with failure.StageOf.
type StageError = failure.StageError

// PanicError is a panic recovered at a pipeline or pool boundary,
// carrying the panic value and stack. Extract with errors.As.
type PanicError = failure.PanicError
