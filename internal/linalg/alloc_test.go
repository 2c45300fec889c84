package linalg_test

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"panorama/internal/linalg"
)

// rowCounter counts the checks of its Err: SymmetricEigen makes one
// before its first rotation and one per row of rotations, so a
// connected n x n matrix that runs s sweeps makes 1 + s(n-1).
type rowCounter struct {
	context.Context
	checks int
}

func (c *rowCounter) Err() error { c.checks++; return nil }

// The eigensolve's scratch is sized by the matrix, never by the work:
// a matrix that needs many sweeps allocates as often, and as many
// bytes, as one of the same size and shape that needs few. A log of
// every rotation (mmul at full scale runs 1.42M of them) would fail
// it.
func TestSymmetricEigenAllocationsDoNotScaleWithSweeps(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const n = 64
	rng := rand.New(rand.NewSource(51))
	few, many := linalg.NewMatrix(n, n), linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		few.Set(i, i, float64(i+1))
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			many.Set(i, j, v)
			many.Set(j, i, v)
			if j == i+1 {
				few.Set(i, j, 1e-9)
				few.Set(j, i, 1e-9)
			}
		}
	}
	measure := func(m *linalg.Matrix) (sweeps int, mallocs, bytes uint64) {
		ctx := &rowCounter{Context: context.Background()}
		if _, err := linalg.SymmetricEigen(ctx, m); err != nil {
			t.Fatal(err)
		}
		// The least of five solves: anything else the process
		// allocates meanwhile only adds.
		mallocs, bytes = math.MaxUint64, math.MaxUint64
		for i := 0; i < 5; i++ {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			linalg.SymmetricEigen(context.Background(), m)
			runtime.ReadMemStats(&after)
			mallocs = min(mallocs, after.Mallocs-before.Mallocs)
			bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		}
		return (ctx.checks - 1) / (n - 1), mallocs, bytes
	}
	fewSweeps, fewMallocs, fewBytes := measure(few)
	manySweeps, manyMallocs, manyBytes := measure(many)
	if fewSweeps > 2 || manySweeps < 4*fewSweeps {
		t.Fatalf("the inputs ran %d and %d sweeps; the test needs one to run at most 2 and the other at least 4 times as many", fewSweeps, manySweeps)
	}
	if manyMallocs > fewMallocs || manyBytes > fewBytes {
		t.Fatalf("%d sweeps allocate %d times, %d bytes; %d sweeps %d times, %d bytes: allocations scale with sweeps",
			fewSweeps, fewMallocs, fewBytes, manySweeps, manyMallocs, manyBytes)
	}
	t.Logf("%d and %d sweeps: %d allocations, %d bytes per solve", fewSweeps, manySweeps, fewMallocs, fewBytes)
}
