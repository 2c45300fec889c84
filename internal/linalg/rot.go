package linalg

// rotate applies one Jacobi rotation to a pair of rows: x[i], y[i] =
// c*x[i]-s*y[i], s*x[i]+c*y[i] for every i < len(x) (y is at least as
// long). Where the CPU has AVX2 it runs the amd64 kernel, four lanes
// at a time with separate multiplies, subtracts and adds (never an
// FMA), so every lane rounds as the scalar expression does and the
// result is bit for bit rotGo's.
func rotate(x, y []float64, c, s float64) {
	y = y[:len(x)]
	if useAVX2 {
		rotAVX2(x, y, c, s)
		return
	}
	rotGo(x, y, c, s)
}

// rotGo is the portable kernel: the scalar loop every other CPU runs
// and the oracle the AVX2 kernel is held to.
func rotGo(x, y []float64, c, s float64) {
	y = y[:len(x)]
	for i, xi := range x {
		yi := y[i]
		x[i], y[i] = c*xi-s*yi, s*xi+c*yi
	}
}

// applyChain4 is applyChain over the four consecutive rows of length k
// in rows, each row with its own chain. Where the CPU has AVX2 the
// four chains run as the four lanes of one register, with the same
// separate multiplies, subtracts and adds as rotate, so the result is
// bit for bit chain4Go's. One lane per row keeps the kernel waiting on
// its chain's latency rather than on the multipliers: it issues a
// quarter of the scalar loop's arithmetic, so it keeps its pace when
// another thread on the same core is busy with floating point (the
// scalar loop then runs at up to half speed).
func applyChain4(rows []float64, k, p int, steps []step) {
	if len(steps) == 0 {
		return
	}
	rows = rows[:4*k]
	if useAVX2 {
		// The kernel checks every column it touches against k.
		if uint(p) >= uint(k) || !chain4AVX2(rows, k, p, steps) {
			panic("linalg: rotation column out of range")
		}
		return
	}
	chain4Go(rows, k, p, steps)
}

// chain4Go is the portable applyChain4, the four chains interleaved,
// and the oracle the AVX2 kernel is held to.
func chain4Go(rows []float64, k, p int, steps []step) {
	r0, r1, r2, r3 := rows[:k], rows[k:][:k], rows[2*k:][:k], rows[3*k:][:k]
	x0, x1, x2, x3 := r0[p], r1[p], r2[p], r3[p]
	for _, st := range steps {
		q, c, s := st.q, st.c, st.s
		y0, y1, y2, y3 := r0[q], r1[q], r2[q], r3[q]
		x0, r0[q] = c*x0-s*y0, s*x0+c*y0
		x1, r1[q] = c*x1-s*y1, s*x1+c*y1
		x2, r2[q] = c*x2-s*y2, s*x2+c*y2
		x3, r3[q] = c*x3-s*y3, s*x3+c*y3
	}
	r0[p], r1[p], r2[p], r3[p] = x0, x1, x2, x3
}
