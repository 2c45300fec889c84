package linalg_test

import (
	"context"
	"fmt"
	"math/rand"
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
func sameEigen(t *testing.T, name string, m *linalg.Matrix) {
	t.Helper()
	got, err := linalg.SymmetricEigen(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	want, err := linalg.SymmetricEigenRef(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Values) != len(want.Values) || len(got.Vectors.Data) != len(want.Vectors.Data) {
		t.Fatalf("%s (n=%d): %d eigenpairs, reference %d", name, m.Rows, len(got.Values), len(want.Values))
	}
	for i, v := range want.Values {
		if got.Values[i] != v {
			t.Fatalf("%s (n=%d): eigenvalue %d is %v, reference %v", name, m.Rows, i, got.Values[i], v)
		}
	}
	for i, v := range want.Vectors.Data {
		if got.Vectors.Data[i] != v {
			t.Fatalf("%s (n=%d): eigenvector entry (%d,%d) is %v, reference %v",
				name, m.Rows, i/m.Cols, i%m.Cols, got.Vectors.Data[i], v)
		}
	}
}

func kernelLaplacian(t testing.TB, kernel string, scale float64) *linalg.Matrix {
	t.Helper()
	spec, err := kernels.ByName(kernel)
	if err != nil {
		t.Fatal(err)
	}
	g := spec.Build(scale)
	if err := g.Freeze(); err != nil {
		t.Fatal(err)
	}
	return spectral.Laplacian(g)
}

// link adds a weighted undirected edge to a Laplacian-shaped matrix.
func link(m *linalg.Matrix, i, j int, w float64) {
	m.Add(i, j, -w)
	m.Add(j, i, -w)
	m.Add(i, i, w)
	m.Add(j, j, w)
}

// pathOn links the given indices into a path with weights 1, 2, 3, ...
// (distinct weights, so that its eigenvalues are simple).
func pathOn(m *linalg.Matrix, idx ...int) {
	for e := 0; e+1 < len(idx); e++ {
		link(m, idx[e], idx[e+1], float64(e+1))
	}
}

type shaped struct {
	name string
	m    *linalg.Matrix
}

// shapedInputs are the cases the per-component split must get exactly
// right: isolated vertices, interleaved and identical components, the
// one-sided zero IsSymmetric accepts, the smallest sizes and a dense
// matrix with no zero off the diagonal.
func shapedInputs() []shaped {
	var in []shaped
	add := func(name string, m *linalg.Matrix) { in = append(in, shaped{name, m}) }

	add("empty", linalg.NewMatrix(0, 0))
	one := linalg.NewMatrix(1, 1)
	one.Set(0, 0, 3)
	add("1x1", one)
	two := linalg.NewMatrix(2, 2)
	two.Set(0, 0, 2)
	two.Set(1, 1, 5)
	link(two, 0, 1, 1)
	add("2x2", two)
	diag2 := linalg.NewMatrix(2, 2)
	diag2.Set(0, 0, 4)
	diag2.Set(1, 1, 4)
	add("2x2 diagonal", diag2)

	iso := linalg.NewMatrix(7, 7)
	pathOn(iso, 0, 1, 2, 4, 5, 6) // 3 is isolated
	iso.Set(3, 3, 0.5)
	add("isolated vertex", iso)

	inter := linalg.NewMatrix(20, 20)
	pathOn(inter, 0, 2, 4, 6, 8, 10, 12, 14, 16, 18)
	pathOn(inter, 19, 1, 17, 3, 15, 5, 13, 7, 11, 9)
	link(inter, 0, 18, 0.5) // close the even one into a cycle
	add("interleaved components", inter)

	// Three copies of one component tie every eigenvalue three ways;
	// 24 entries put sort.Slice past its insertion sort, where it is
	// not stable.
	twins := linalg.NewMatrix(24, 24)
	for c := 0; c < 3; c++ {
		pathOn(twins, c, c+3, c+6, c+9, c+12, c+15, c+18, c+21)
	}
	add("identical components", twins)

	// a[2][9] is 0 and a[9][2] is 1e-10: the two interleaved paths are
	// one component only through the lower triangle. The whole-matrix
	// solve spreads the 1e-10 into entries it later rotates (a[1][2],
	// say), so splitting here moves the result.
	skew := linalg.NewMatrix(12, 12)
	pathOn(skew, 0, 2, 4, 6, 8, 10)
	pathOn(skew, 1, 3, 5, 7, 9, 11)
	skew.Set(9, 2, 1e-10)
	add("one-sided zero", skew)

	rng := rand.New(rand.NewSource(46))
	dense := linalg.NewMatrix(40, 40)
	for i := 0; i < 40; i++ {
		for j := i; j < 40; j++ {
			v := rng.NormFloat64()
			dense.Set(i, j, v)
			dense.Set(j, i, v)
		}
	}
	add("random dense", dense)
	return in
}

func TestSymmetricEigenMatchesReferenceBitForBit(t *testing.T) {
	for _, in := range shapedInputs() {
		sameEigen(t, in.name, in.m)
	}
	for _, k := range kernels.Names() {
		sameEigen(t, fmt.Sprintf("%s at scale 0.25", k), kernelLaplacian(t, k, 0.25))
	}
	if testing.Short() || raceEnabled {
		return // `make check` runs the rest without the race detector (check-bits)
	}
	for _, k := range kernels.Names() {
		sameEigen(t, fmt.Sprintf("%s at scale 0.5", k), kernelLaplacian(t, k, 0.5))
	}
	// The benchmark's full-scale Laplacians (n = 448..480).
	for _, k := range []string{"edn", "jpegidctfst", "mmul"} {
		sameEigen(t, fmt.Sprintf("%s at scale 1", k), kernelLaplacian(t, k, 1.0))
	}
}

// BenchmarkSymmetricEigen times one eigensolve of the full-scale mmul
// Laplacian (n = 480, one connected component), the largest matrix the
// benchmark's full16-panuf workload solves:
//
//	go test -run '^$' -bench SymmetricEigen ./internal/linalg/
func BenchmarkSymmetricEigen(b *testing.B) {
	lap := kernelLaplacian(b, "mmul", 1.0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := linalg.SymmetricEigen(context.Background(), lap); err != nil {
			b.Fatal(err)
		}
	}
}

// The same oracle through the portable rotation kernel, so that a host
// with AVX2 also checks the path every other CPU runs.
func TestSymmetricEigenMatchesReferenceBitForBitOnGoKernel(t *testing.T) {
	defer linalg.UseGoRotation()()
	TestSymmetricEigenMatchesReferenceBitForBit(t)
}
