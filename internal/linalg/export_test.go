package linalg

import (
	"fmt"
	"math"
	"sort"
)

// SymmetricEigenRef is SymmetricEigen as it stood before its rotation
// walked contiguous memory and before it split the matrix into
// components, kept verbatim as the bit-for-bit oracle: the same sweeps,
// thresholds and expressions over At/Set on the whole matrix and an
// untransposed V.
func SymmetricEigenRef(m *Matrix) (*EigenResult, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("linalg: eigen of non-square %dx%d matrix", m.Rows, m.Cols)
	}
	if !m.IsSymmetric(1e-9) {
		return nil, fmt.Errorf("linalg: eigen of non-symmetric matrix")
	}
	n := m.Rows
	a := m.Clone()
	v := Identity(n)

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
				rotateRef(a, v, p, q, c, s)
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
		for r := 0; r < n; r++ {
			res.Vectors.Set(r, rank, v.At(r, idx))
		}
	}
	return res, nil
}

// rotateRef is the rotation as first written: three loops through
// At/Set, two of them down columns at stride n.
func rotateRef(a, v *Matrix, p, q int, c, s float64) {
	n := a.Rows
	for i := 0; i < n; i++ {
		aip := a.At(i, p)
		aiq := a.At(i, q)
		a.Set(i, p, c*aip-s*aiq)
		a.Set(i, q, s*aip+c*aiq)
	}
	for j := 0; j < n; j++ {
		apj := a.At(p, j)
		aqj := a.At(q, j)
		a.Set(p, j, c*apj-s*aqj)
		a.Set(q, j, s*apj+c*aqj)
	}
	for i := 0; i < n; i++ {
		vip := v.At(i, p)
		viq := v.At(i, q)
		v.Set(i, p, c*vip-s*viq)
		v.Set(i, q, s*vip+c*viq)
	}
}

// offDiagNorm is the oracle's convergence norm, over the whole matrix.
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

// UseGoRotation makes SymmetricEigen rotate through rotGo and chain4Go,
// the kernels other CPUs and architectures run, until the returned
// function restores the CPU's choice.
func UseGoRotation() (restore func()) {
	was := useAVX2
	useAVX2 = false
	return func() { useAVX2 = was }
}
