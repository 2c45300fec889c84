package linalg_test

import (
	"testing"

	"panorama/internal/kernels"
	"panorama/internal/linalg"
	"panorama/internal/spectral"
)

// sameEigen holds SymmetricEigen to the reference loops with == on
// every eigenvalue and every eigenvector entry. A tolerance would be
// the wrong test: spectral clustering feeds these vectors to k-means,
// and inside a degenerate eigenspace (edn's Laplacian has an eigenvalue
// of multiplicity 13) a last-bit difference is another basis and
// another partition.
func sameEigen(t *testing.T, kernel string, scale float64) {
	t.Helper()
	spec, err := kernels.ByName(kernel)
	if err != nil {
		t.Fatal(err)
	}
	g := spec.Build(scale)
	if err := g.Freeze(); err != nil {
		t.Fatal(err)
	}
	lap := spectral.Laplacian(g)
	got, err := linalg.SymmetricEigen(lap)
	if err != nil {
		t.Fatal(err)
	}
	want, err := linalg.SymmetricEigenRef(lap)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range want.Values {
		if got.Values[i] != v {
			t.Fatalf("%s at scale %v (n=%d): eigenvalue %d is %v, reference %v", kernel, scale, lap.Rows, i, got.Values[i], v)
		}
	}
	for i, v := range want.Vectors.Data {
		if got.Vectors.Data[i] != v {
			t.Fatalf("%s at scale %v (n=%d): eigenvector entry (%d,%d) is %v, reference %v",
				kernel, scale, lap.Rows, i/lap.Cols, i%lap.Cols, got.Vectors.Data[i], v)
		}
	}
}

func TestSymmetricEigenMatchesReferenceBitForBit(t *testing.T) {
	for _, k := range kernels.Names() {
		sameEigen(t, k, 0.25)
	}
	if testing.Short() || raceEnabled {
		return // `make check` runs the rest without the race detector (check-bits)
	}
	// The benchmark's full-scale Laplacians (n = 448..480).
	for _, k := range []string{"edn", "jpegidctfst", "mmul"} {
		sameEigen(t, k, 1.0)
	}
}
