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
// Jacobi is O(n^3) per sweep and converges in 8 to 19 sweeps on the
// benchmark's Laplacians (full-scale mmul, n = 480: 19 sweeps, 1.42M
// rotations); it is unconditionally stable, which matters more here
// than speed (spectral clustering calls it once per kernel).
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
		return nil, fmt.Errorf("linalg: eigen of non-symmetric or non-finite matrix")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := m.Rows
	blocks, of, at := splitBlocks(m)
	steps, from := make([]step, 0, n), make([]int, n)

	const maxSweeps = 64
	tol := 1e-11 * (1 + offNorm(blocks, of, at))
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := offNorm(blocks, of, at)
		if off < tol {
			break
		}
		for _, b := range blocks {
			if err := b.sweep(ctx, steps, from); err != nil {
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

// step is one executed rotation of a p-row: the column q it pairs
// with p, and its cosine and sine.
type step struct {
	q    int
	c, s float64
}

// sweep runs one cyclic Jacobi sweep over the block. steps and from
// are scratch of at least k entries.
//
// A rotation (p, q) rotates the row pair (p, q) of a and of vt, the
// 2x2 block at {p, q}, and the column pair (p, q) of a at every other
// row t. The row pairs are contiguous and run at once, through rotate.
// The column pairs are deferred and applied row by row instead of
// down the columns: row t sees the p-row's rotations as one chain,
// x = a[t][p]; x, a[t][q] = c*x-s*a[t][q], s*x+c*a[t][q] for each
// (q, c, s) in order. That chain touches only a[t][p] and a[t][q],
// which nothing else in the p-row reads or writes except when t is
// itself a rotated q: its row pair reads row t at the columns of the
// earlier rotations (all below t), and its 2x2 block reads a[t][p].
// So each row is caught up on the earlier rotations just before its
// own, and everything left is applied after the p-row's last rotation.
// Every entry gets the same expressions, in the same order, from the
// same operands as under the textbook's loops (columns p and q over
// every row, then rows p and q over every column, then vt).
//
// from[t] counts the rotations row t has had applied or, for its own,
// skipped. Rows above p are caught up four at a time (each with its
// own chain, so the four run side by side), as soon as the p-row
// reaches the first of them; a row rotated later in its group catches
// up on the few rotations since alone.
func (b *block) sweep(ctx context.Context, steps []step, from []int) error {
	k := len(b.idx)
	a, vt := b.a, b.vt
	from = from[:k]
	for p := 0; p < k-1; p++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		steps = steps[:0]
		clear(from[p+1:])
		rp, vp := a[p*k:(p+1)*k], vt[p*k:(p+1)*k]
		for q := p + 1; q < k; q++ {
			if (q-p-1)%4 == 0 {
				b.applyRows(p, q, min(q+4, k), steps, from)
			}
			apq := rp[q]
			if math.Abs(apq) < 1e-14 {
				continue
			}
			rq := a[q*k : (q+1)*k]
			applyChain(rq, p, steps[from[q]:])
			app, aqp, aqq := rp[p], rq[p], rq[q]
			// Rotation angle that annihilates a[p][q].
			theta := (aqq - app) / (2 * apq)
			t := sign(theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
			c := 1 / math.Sqrt(t*t+1)
			s := t * c
			rotate(rp, rq, c, s)
			rotate(vp, vt[q*k:(q+1)*k], c, s)
			// The rows' pass above also wrote the 2x2 block; it is
			// rewritten here from its old entries in the textbook's
			// order: columns p and q at rows p, then q, then rows p and
			// q at columns p, then q.
			pp, pq := c*app-s*apq, s*app+c*apq
			qp, qq := c*aqp-s*aqq, s*aqp+c*aqq
			rp[p], rq[p] = c*pp-s*qp, s*pp+c*qp
			rp[q], rq[q] = c*pq-s*qq, s*pq+c*qq
			steps = append(steps, step{q, c, s})
			from[q] = len(steps)
		}
		if len(steps) > 0 {
			b.applyRows(p, 0, p, steps, from)
			for t := p + 1; t < k; t += 4 {
				b.applyRows(p, t, min(t+4, k), steps, from)
			}
		}
	}
	return nil
}

// applyRows applies to rows [lo, hi), which lie all below p or, at
// most four, all above it, the column pairs of the p-row's rotations
// they have not had yet: from[t] onwards for rows above p, which it
// then marks as caught up, and every one for rows below p, which see
// the p-row only here. A row behind its group is first brought level
// alone; then each group of four runs its chains together, through
// applyChain4.
func (b *block) applyRows(p, lo, hi int, steps []step, from []int) {
	k := len(b.idx)
	a := b.a
	for ; lo < hi; lo += 4 {
		n := min(hi-lo, 4)
		level := 0
		if lo > p {
			for t := lo; t < lo+n; t++ {
				level = max(level, from[t])
			}
			for t := lo; t < lo+n; t++ {
				applyChain(a[t*k:(t+1)*k], p, steps[from[t]:level])
				from[t] = len(steps)
			}
		}
		if n < 4 {
			for t := lo; t < lo+n; t++ {
				applyChain(a[t*k:(t+1)*k], p, steps[level:])
			}
			continue
		}
		applyChain4(a[lo*k:(lo+4)*k], k, p, steps[level:])
	}
}

// applyChain applies the column pairs (p, q) of steps, in order, to
// one row r of a.
func applyChain(r []float64, p int, steps []step) {
	if len(steps) == 0 {
		return
	}
	x := r[p]
	for _, st := range steps {
		y := r[st.q]
		x, r[st.q] = st.c*x-st.s*y, st.s*x+st.c*y
	}
	r[p] = x
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
