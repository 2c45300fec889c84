package linalg_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"panorama/internal/linalg"
)

// The eigensolve stops on its caller's clock: a cancelled ctx fails
// before the first rotation (a 1x1 matrix has none to wait for), and a
// deadline is noticed within one row of rotations of the full-scale
// mmul Laplacian (n = 480, about 0.2 s per sweep).
func TestSymmetricEigenHonoursCtx(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	one := linalg.NewMatrix(1, 1)
	lap := kernelLaplacian(t, "mmul", 1.0)
	for _, m := range []*linalg.Matrix{one, lap} {
		if _, err := linalg.SymmetricEigen(cancelled, m); !errors.Is(err, context.Canceled) {
			t.Fatalf("n=%d, cancelled ctx: err = %v, want context.Canceled", m.Rows, err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	_, err := linalg.SymmetricEigen(ctx, lap)
	if took := time.Since(t0); !errors.Is(err, context.DeadlineExceeded) || took > 250*time.Millisecond {
		t.Fatalf("20 ms deadline: err = %v after %v, want DeadlineExceeded within 250 ms", err, took)
	}
}
