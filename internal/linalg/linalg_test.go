package linalg

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewMatrixZero(t *testing.T) {
	m := NewMatrix(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("bad shape: %+v", m)
	}
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("not zero-initialised")
		}
	}
}

func TestSetAtAdd(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 1, 3.5)
	m.Add(0, 1, 1.5)
	if m.At(0, 1) != 5 {
		t.Fatalf("At = %v, want 5", m.At(0, 1))
	}
}

func TestIdentity(t *testing.T) {
	m := Identity(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if m.At(i, j) != want {
				t.Fatalf("I[%d][%d] = %v", i, j, m.At(i, j))
			}
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	m := Identity(2)
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestRowCol(t *testing.T) {
	m := NewMatrix(2, 3)
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			m.Set(i, j, float64(10*i+j))
		}
	}
	r := m.Row(1)
	if r[0] != 10 || r[2] != 12 {
		t.Fatalf("Row(1) = %v", r)
	}
	c := m.Col(2)
	if c[0] != 2 || c[1] != 12 {
		t.Fatalf("Col(2) = %v", c)
	}
}

func TestTranspose(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 2, 7)
	tr := m.Transpose()
	if tr.Rows != 3 || tr.Cols != 2 || tr.At(2, 0) != 7 {
		t.Fatalf("transpose wrong: %+v", tr)
	}
}

func TestMul(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 3)
	a.Set(1, 1, 4)
	b := Identity(2)
	c := a.Mul(b)
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if c.At(i, j) != a.At(i, j) {
				t.Fatalf("A*I != A at (%d,%d)", i, j)
			}
		}
	}
}

func TestMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Mul with mismatched shapes did not panic")
		}
	}()
	NewMatrix(2, 3).Mul(NewMatrix(2, 2))
}

func TestMulVec(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, 2)
	m.Set(1, 1, 3)
	got := m.MulVec([]float64{4, 5})
	if got[0] != 8 || got[1] != 15 {
		t.Fatalf("MulVec = %v", got)
	}
}

func TestIsSymmetric(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 1, 1)
	if m.IsSymmetric(1e-12) {
		t.Fatal("asymmetric matrix reported symmetric")
	}
	m.Set(1, 0, 1)
	if !m.IsSymmetric(1e-12) {
		t.Fatal("symmetric matrix reported asymmetric")
	}
	if NewMatrix(2, 3).IsSymmetric(1) {
		t.Fatal("non-square matrix reported symmetric")
	}
	// A non-finite entry is not symmetric, wherever it sits; passed on,
	// it makes the eigensolver run all its sweeps and return NaN
	// eigenpairs with a nil error.
	path := func() *Matrix {
		p := NewMatrix(60, 60)
		for i := 0; i+1 < 60; i++ {
			p.Add(i, i+1, -1)
			p.Add(i+1, i, -1)
			p.Add(i, i, 1)
			p.Add(i+1, i+1, 1)
		}
		return p
	}
	if !path().IsSymmetric(1e-9) {
		t.Fatal("path Laplacian reported asymmetric")
	}
	for _, c := range []struct {
		i, j int
		v    float64
	}{{7, 7, math.NaN()}, {7, 7, math.Inf(1)}, {7, 8, math.NaN()}, {7, 8, math.Inf(-1)}} {
		p := path()
		p.Set(c.i, c.j, c.v)
		if c.i != c.j {
			p.Set(c.j, c.i, c.v)
		}
		if p.IsSymmetric(1e-9) {
			t.Fatalf("path Laplacian with %v at (%d,%d) reported symmetric", c.v, c.i, c.j)
		}
		if _, err := SymmetricEigen(context.Background(), p); err == nil {
			t.Fatalf("eigensolve accepted %v at (%d,%d)", c.v, c.i, c.j)
		}
	}
}

func TestEigenRejectsNonSymmetric(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 1, 5)
	if _, err := SymmetricEigen(context.Background(), m); err == nil {
		t.Fatal("accepted non-symmetric input")
	}
	if _, err := SymmetricEigen(context.Background(), NewMatrix(2, 3)); err == nil {
		t.Fatal("accepted non-square input")
	}
}

func TestEigenDiagonal(t *testing.T) {
	m := NewMatrix(3, 3)
	m.Set(0, 0, 3)
	m.Set(1, 1, 1)
	m.Set(2, 2, 2)
	res, err := SymmetricEigen(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3}
	for i, w := range want {
		if !almostEq(res.Values[i], w, 1e-9) {
			t.Fatalf("values = %v, want %v", res.Values, want)
		}
	}
}

func TestEigenKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 1 and 3.
	m := NewMatrix(2, 2)
	m.Set(0, 0, 2)
	m.Set(0, 1, 1)
	m.Set(1, 0, 1)
	m.Set(1, 1, 2)
	res, err := SymmetricEigen(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(res.Values[0], 1, 1e-9) || !almostEq(res.Values[1], 3, 1e-9) {
		t.Fatalf("values = %v, want [1 3]", res.Values)
	}
}

func randomSymmetric(n int, rng *rand.Rand) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	return m
}

func TestEigenReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 5; trial++ {
		n := 5 + trial*7
		m := randomSymmetric(n, rng)
		res, err := SymmetricEigen(context.Background(), m)
		if err != nil {
			t.Fatal(err)
		}
		// Check A*v = lambda*v for every eigenpair.
		for k := 0; k < n; k++ {
			v := res.Vectors.Col(k)
			av := m.MulVec(v)
			for i := 0; i < n; i++ {
				if !almostEq(av[i], res.Values[k]*v[i], 1e-7) {
					t.Fatalf("n=%d pair %d: A*v != lambda*v (%v vs %v)", n, k, av[i], res.Values[k]*v[i])
				}
			}
		}
	}
}

func TestEigenVectorsOrthonormal(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := randomSymmetric(12, rng)
	res, err := SymmetricEigen(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	n := 12
	for a := 0; a < n; a++ {
		for b := a; b < n; b++ {
			dot := 0.0
			for i := 0; i < n; i++ {
				dot += res.Vectors.At(i, a) * res.Vectors.At(i, b)
			}
			want := 0.0
			if a == b {
				want = 1
			}
			if !almostEq(dot, want, 1e-8) {
				t.Fatalf("v%d . v%d = %v, want %v", a, b, dot, want)
			}
		}
	}
}

func TestEigenValuesSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	res, err := SymmetricEigen(context.Background(), randomSymmetric(20, rng))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Values); i++ {
		if res.Values[i] < res.Values[i-1] {
			t.Fatalf("eigenvalues not ascending: %v", res.Values)
		}
	}
}

// Property: trace equals the sum of eigenvalues.
func TestQuickEigenTrace(t *testing.T) {
	f := func(seed int64, szRaw uint8) bool {
		n := int(szRaw%10) + 2
		rng := rand.New(rand.NewSource(seed))
		m := randomSymmetric(n, rng)
		res, err := SymmetricEigen(context.Background(), m)
		if err != nil {
			return false
		}
		trace, sum := 0.0, 0.0
		for i := 0; i < n; i++ {
			trace += m.At(i, i)
			sum += res.Values[i]
		}
		return almostEq(trace, sum, 1e-7)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
