package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"panorama/internal/arch"
	"panorama/internal/failure"
	"panorama/internal/kernels"
)

// deadlineSlack is how far past Budgets.Total a run may return: the
// longest stretch of work between two polls of the clock, anywhere in
// any mapper's pipeline, must fit in it.
const deadlineSlack = 50 * time.Millisecond

// Every mapper honours Budgets.Total on full-scale 16x16 inputs: a run
// the clock stops returns ErrBudget within deadlineSlack of the budget,
// and its error and Provenance.BudgetStage name the same stage. A stage
// that never polls ctx shows up here as an overrun. A run that ends on
// its own (UltraFast* maps cordic in a few milliseconds) must end
// within the same bound.
func TestDeadlineLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale inputs")
	}
	a := arch.Preset16x16()
	for _, kernel := range []string{"conv2d", "cordic"} {
		spec, err := kernels.ByName(kernel)
		if err != nil {
			t.Fatal(err)
		}
		d := spec.Build(1.0)
		for _, mapper := range MapperNames() {
			for _, total := range []time.Duration{time.Millisecond, 20 * time.Millisecond, 150 * time.Millisecond} {
				cfg := Config{Seed: 1, RelaxOnFailure: true, Workers: 1, Budgets: Budgets{Total: total}}
				t0 := time.Now()
				res, err := MapByName(context.Background(), d, a, mapper, cfg)
				took := time.Since(t0)
				run := kernel + " " + mapper + " " + total.String()
				switch {
				case err == nil:
				case !errors.Is(err, ErrBudget):
					t.Errorf("%s: err = %v, want ErrBudget", run, err)
				case res == nil || res.Provenance.BudgetStage == "" || res.Provenance.BudgetStage != failure.StageOf(err):
					t.Errorf("%s: err %v, want it and the result to name the stage the clock stopped", run, err)
				}
				// The race detector slows every stage several-fold.
				if !raceEnabled && took > total+deadlineSlack {
					t.Errorf("%s: returned after %v, want within %v", run, took.Round(time.Millisecond), total+deadlineSlack)
				}
			}
		}
	}
}
