package linalg

import (
	"context"
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
// ctx is checked before the first rotation and once per row of
// rotations; a cancelled or expired ctx returns its error.
//
// Jacobi is O(n^3) per sweep and typically converges in under 15
// sweeps; it is unconditionally stable, which matters more here than
// speed (spectral clustering calls it once per kernel).
//
// Each connected component of the off-diagonal pattern is solved as
// its own dense block, which is exact: for finite input the result
// equals, bit for bit, that of one cyclic Jacobi over the whole
// matrix (the oracle in export_test.go). An entry between two
// components is zero and stays zero under every rotation, so a
// whole-matrix solve skips every such pair and leaves +0 in every
// eigenvector entry outside the component; rotations of different
// components touch disjoint entries, so their interleaving is
// immaterial; the convergence norm adds the same non-zero terms in the
// same row-major order, so every block runs the same sweeps; and the
// eigenpairs are sorted over the diagonal in original index order, as
// one solve sorts them (sort.Slice is not stable, and equal components
// tie exactly).
func SymmetricEigen(ctx context.Context, m *Matrix) (*EigenResult, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("linalg: eigen of non-square %dx%d matrix", m.Rows, m.Cols)
	}
	if !m.IsSymmetric(1e-9) {
		return nil, fmt.Errorf("linalg: eigen of non-symmetric matrix")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := m.Rows
	blocks, of, at := splitBlocks(m)
	col := make([]float64, n) // column p of the block being rotated

	const maxSweeps = 64
	tol := 1e-11 * (1 + offNorm(blocks, of, at))
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := offNorm(blocks, of, at)
		if off < tol {
			break
		}
		for _, b := range blocks {
			if err := b.sweep(ctx, col); err != nil {
				return nil, err
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
		b, li := blocks[of[i]], at[i]
		diag[i] = b.a[li*len(b.idx)+li]
	}
	sort.Slice(order, func(i, j int) bool { return diag[order[i]] < diag[order[j]] })
	for rank, idx := range order {
		res.Values[rank] = diag[idx]
		b, li := blocks[of[idx]], at[idx]
		k := len(b.idx)
		for lj, r := range b.idx {
			res.Vectors.Data[r*n+rank] = b.vt[li*k+lj]
		}
	}
	return res, nil
}

// block is one connected component of a matrix's off-diagonal pattern
// as a dense k x k problem: idx lists its members (ascending), a is
// the submatrix they span and vt accumulates its rotations, transposed
// (local eigenvector i is row i).
type block struct {
	idx   []int
	a, vt []float64
}

// splitBlocks splits m into the connected components of its
// off-diagonal pattern, taken from both triangles (m[i][j] != 0 or
// m[j][i] != 0, since IsSymmetric lets the two differ), in order of
// their smallest member. Index i lands in blocks[of[i]] at local
// position at[i].
func splitBlocks(m *Matrix) (blocks []*block, of, at []int) {
	n := m.Rows
	root := make([]int, n)
	for i := range root {
		root[i] = i
	}
	find := func(i int) int {
		for root[i] != i {
			root[i] = root[root[i]]
			i = root[i]
		}
		return i
	}
	for i := 0; i < n; i++ {
		for j, x := range m.Data[i*n : (i+1)*n] {
			if x != 0 && j != i {
				if ri, rj := find(i), find(j); ri != rj {
					root[max(ri, rj)] = min(ri, rj)
				}
			}
		}
	}
	// A root is its component's smallest member, so it opens its block.
	of, at = make([]int, n), make([]int, n)
	for i := 0; i < n; i++ {
		if r := find(i); r == i {
			of[i] = len(blocks)
			blocks = append(blocks, &block{})
		} else {
			of[i] = of[r]
		}
		b := blocks[of[i]]
		at[i] = len(b.idx)
		b.idx = append(b.idx, i)
	}
	for _, b := range blocks {
		k := len(b.idx)
		b.a, b.vt = make([]float64, k*k), make([]float64, k*k)
		for li, gi := range b.idx {
			row := m.Data[gi*n : (gi+1)*n]
			for lj, gj := range b.idx {
				b.a[li*k+lj] = row[gj]
			}
			b.vt[li*k+li] = 1
		}
	}
	return blocks, of, at
}

// sweep runs one cyclic Jacobi sweep over the block. Column p of a
// lives in col for the whole row of rotations (p, q > p) and is written
// back at the end of the row, so no rotation walks it at stride k; the
// other entries stay in a.
func (b *block) sweep(ctx context.Context, col []float64) error {
	k := len(b.idx)
	a := b.a
	col = col[:k]
	for p := 0; p < k-1; p++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		for t := range col {
			col[t] = a[t*k+p]
		}
		rp := a[p*k : (p+1)*k]
		for q := p + 1; q < k; q++ {
			apq := rp[q]
			if math.Abs(apq) < 1e-14 {
				continue
			}
			app := col[p]
			aqq := a[q*k+q]
			// Rotation angle that annihilates a[p][q].
			theta := (aqq - app) / (2 * apq)
			t := sign(theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
			c := 1 / math.Sqrt(t*t+1)
			s := t * c
			b.rotate(col, p, q, c, s)
		}
		for t, x := range col {
			a[t*k+p] = x
		}
	}
	return nil
}

// rotate applies the Jacobi rotation G(p,q,theta) to a (two-sided,
// with column p held in col) and accumulates it into vt (one-sided, on
// the transpose, so both updated vectors are rows). Every entry is
// computed by the expression, and from the operands, of the textbook
// loops (columns p and q over every row, then rows p and q over every
// column, then vt): off the 2x2 block at {p, q} those loops touch
// disjoint entries, so one pass does all three, and the block follows
// in the textbook's order. Later rotations read the last bits of these
// entries and degenerate eigenspaces amplify them into other
// eigenvectors, so nothing here may be fused into an FMA, reordered
// within an entry or halved by symmetry.
func (b *block) rotate(col []float64, p, q int, c, s float64) {
	k := len(b.idx)
	a, vt := b.a, b.vt
	rp, rq := a[p*k:(p+1)*k], a[q*k:(q+1)*k]
	vp, vq := vt[p*k:(p+1)*k], vt[q*k:(q+1)*k]
	rotateOff(a, col, rp, rq, vp, vq, k, q, 0, p, c, s)
	rotateOff(a, col, rp, rq, vp, vq, k, q, p+1, q, c, s)
	rotateOff(a, col, rp, rq, vp, vq, k, q, q+1, k, c, s)

	// Columns p and q at rows p, then q.
	app, apq := col[p], rp[q]
	col[p], rp[q] = c*app-s*apq, s*app+c*apq
	aqp, aqq := col[q], rq[q]
	col[q], rq[q] = c*aqp-s*aqq, s*aqp+c*aqq
	// Rows p and q at columns p, then q.
	app, aqp = col[p], col[q]
	col[p], col[q] = c*app-s*aqp, s*app+c*aqp
	apq, aqq = rp[q], rq[q]
	rp[q], rq[q] = c*apq-s*aqq, s*apq+c*aqq
	// vt at columns p and q.
	vpp, vqp := vp[p], vq[p]
	vp[p], vq[p] = c*vpp-s*vqp, s*vpp+c*vqp
	vpq, vqq := vp[q], vq[q]
	vp[q], vq[q] = c*vpq-s*vqq, s*vpq+c*vqq
}

// rotateOff applies the rotation at every t in [lo, hi), t not in
// {p, q}: the column pair (t, p), (t, q), the row pair (p, t), (q, t)
// and vt's row pair (p, t), (q, t). col holds column p; column q is
// walked in a at stride k.
func rotateOff(a, col, rp, rq, vp, vq []float64, k, q, lo, hi int, c, s float64) {
	col = col[lo:hi]
	n := len(col)
	rp, rq, vp, vq = rp[lo:hi][:n], rq[lo:hi][:n], vp[lo:hi][:n], vq[lo:hi][:n]
	iq := lo*k + q // a[t][q]
	t := 0
	for ; t+1 < n; t, iq = t+2, iq+2*k {
		x0, y0, x1, y1 := col[t], a[iq], col[t+1], a[iq+k]
		col[t], a[iq], col[t+1], a[iq+k] = c*x0-s*y0, s*x0+c*y0, c*x1-s*y1, s*x1+c*y1
		x0, y0, x1, y1 = rp[t], rq[t], rp[t+1], rq[t+1]
		rp[t], rq[t], rp[t+1], rq[t+1] = c*x0-s*y0, s*x0+c*y0, c*x1-s*y1, s*x1+c*y1
		x0, y0, x1, y1 = vp[t], vq[t], vp[t+1], vq[t+1]
		vp[t], vq[t], vp[t+1], vq[t+1] = c*x0-s*y0, s*x0+c*y0, c*x1-s*y1, s*x1+c*y1
	}
	if t < n {
		x, y := col[t], a[iq]
		col[t], a[iq] = c*x-s*y, s*x+c*y
		x, y = rp[t], rq[t]
		rp[t], rq[t] = c*x-s*y, s*x+c*y
		x, y = vp[t], vq[t]
		vp[t], vq[t] = c*x-s*y, s*x+c*y
	}
}

// offNorm is the Frobenius norm of the off-diagonal entries, summed
// in the whole matrix's row-major order; entries between blocks are
// zero and add nothing.
func offNorm(blocks []*block, of, at []int) float64 {
	s := 0.0
	for i := range of {
		b, li := blocks[of[i]], at[i]
		k := len(b.idx)
		for lj, x := range b.a[li*k : (li+1)*k] {
			if lj != li {
				s += x * x
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
