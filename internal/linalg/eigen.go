package linalg

import (
	"fmt"
	"math"
	"sort"
)

// EigenResult holds the eigendecomposition of a symmetric matrix:
// Values[i] is the i-th eigenvalue (ascending) and Vectors column i is
// the corresponding unit eigenvector.
type EigenResult struct {
	Values  []float64
	Vectors *Matrix // n x n, eigenvectors as columns
}

// SymmetricEigen computes the full eigendecomposition of a real
// symmetric matrix with the cyclic Jacobi rotation method. The input is
// not modified. Eigenpairs are returned in ascending eigenvalue order.
//
// Jacobi is O(n^3) per sweep and typically converges in under 15
// sweeps; it is unconditionally stable, which matters more here than
// speed (spectral clustering calls it once per kernel).
func SymmetricEigen(m *Matrix) (*EigenResult, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("linalg: eigen of non-square %dx%d matrix", m.Rows, m.Cols)
	}
	if !m.IsSymmetric(1e-9) {
		return nil, fmt.Errorf("linalg: eigen of non-symmetric matrix")
	}
	n := m.Rows
	a := m.Clone()
	vt := Identity(n) // the accumulated rotations, transposed: eigenvector i is row i

	const maxSweeps = 64
	tol := 1e-11 * (1 + offDiagNorm(a))
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := offDiagNorm(a)
		if off < tol {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := a.At(p, q)
				if math.Abs(apq) < 1e-14 {
					continue
				}
				app := a.At(p, p)
				aqq := a.At(q, q)
				// Rotation angle that annihilates a[p][q].
				theta := (aqq - app) / (2 * apq)
				t := sign(theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				rotate(a, vt, p, q, c, s)
			}
		}
	}

	res := &EigenResult{
		Values:  make([]float64, n),
		Vectors: NewMatrix(n, n),
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	diag := make([]float64, n)
	for i := 0; i < n; i++ {
		diag[i] = a.At(i, i)
	}
	sort.Slice(order, func(i, j int) bool { return diag[order[i]] < diag[order[j]] })
	for rank, idx := range order {
		res.Values[rank] = diag[idx]
		for r, x := range vt.Data[idx*n : (idx+1)*n] {
			res.Vectors.Set(r, rank, x)
		}
	}
	return res, nil
}

// rotate applies the Jacobi rotation G(p,q,theta) to a (two-sided) and
// accumulates it into vt (one-sided, on the transpose, so both updated
// vectors are rows). Entries are computed by the expressions, and in
// the order, of the textbook At/Set loops; only the addressing differs.
// Later rotations read the last bits of these entries and degenerate
// eigenspaces amplify them into other eigenvectors, so nothing here may
// be fused, reordered or halved by symmetry.
func rotate(a, vt *Matrix, p, q int, c, s float64) {
	n := a.Rows
	d := a.Data
	for ip, iq := p, q; ip < len(d); ip, iq = ip+n, iq+n {
		aip, aiq := d[ip], d[iq]
		d[ip] = c*aip - s*aiq
		d[iq] = s*aip + c*aiq
	}
	rotateRows(d[p*n:(p+1)*n], d[q*n:(q+1)*n], c, s)
	rotateRows(vt.Data[p*n:(p+1)*n], vt.Data[q*n:(q+1)*n], c, s)
}

// rotateRows replaces (x, y) by (c*x - s*y, s*x + c*y) elementwise.
func rotateRows(x, y []float64, c, s float64) {
	y = y[:len(x)]
	for j, xj := range x {
		yj := y[j]
		x[j] = c*xj - s*yj
		y[j] = s*xj + c*yj
	}
}

func offDiagNorm(a *Matrix) float64 {
	s := 0.0
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			if i != j {
				s += a.At(i, j) * a.At(i, j)
			}
		}
	}
	return math.Sqrt(s)
}

func sign(x float64) float64 {
	if x < 0 {
		return -1
	}
	return 1
}
