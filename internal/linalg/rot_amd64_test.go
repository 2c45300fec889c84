package linalg

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// rotSpecials are the inputs where a vector kernel could part from
// the scalar one: signed zeros, subnormals, the largest finite values,
// infinities, and NaNs with distinct payloads (when both operands of
// an add or subtract are NaN the result carries the first one's).
var rotSpecials = []float64{
	0, math.Copysign(0, -1),
	5e-324, -5e-324, 2.2250738585072009e-308, -1.5e-310,
	math.MaxFloat64, -math.MaxFloat64, 1e300, -1e-300,
	math.Inf(1), math.Inf(-1),
	math.NaN(), math.Float64frombits(0x7ff8000000000123), math.Float64frombits(0xfff4000000000456),
	1, -1, 0.1,
}

// rotPairs are cosine/sine pairs of the kind the solver makes,
// including c == 1 with |s| far below an ulp of 1, plus ones that
// overflow, underflow and meet the specials.
func rotPairs(rng *rand.Rand) [][2]float64 {
	pairs := [][2]float64{
		{1, 1e-17}, {1, -1e-17}, {1, 5e-324}, {1, -1e-300}, {1, 0},
		{0.6, 0.8}, {0.8, -0.6}, {0, 1}, {math.Sqrt(0.5), math.Sqrt(0.5)},
		{2, 1e308}, {math.Copysign(0, -1), 0},
	}
	for i := 0; i < 8; i++ {
		theta := rng.NormFloat64()
		t := sign(theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
		c := 1 / math.Sqrt(t*t+1)
		pairs = append(pairs, [2]float64{c, t * c})
	}
	return pairs
}

// The AVX2 kernel equals rotGo bit for bit, lane by lane, on every
// length through its unrolled, four-wide and scalar tails, on slices
// that start at odd offsets, and it writes nothing outside them.
func TestRotAVX2MatchesGo(t *testing.T) {
	if !useAVX2 {
		t.Skip("this CPU has no AVX2")
	}
	rng := rand.New(rand.NewSource(51))
	value := func() float64 {
		if rng.Intn(3) == 0 {
			return rotSpecials[rng.Intn(len(rotSpecials))]
		}
		return rng.NormFloat64() * math.Pow(2, float64(rng.Intn(40)-20))
	}
	const guard = 12345.678
	for _, cs := range rotPairs(rng) {
		for n := 0; n <= 67; n++ {
			for off := 0; off < 4; off++ {
				xs, ys := make([]float64, off+n+1), make([]float64, off+n+1)
				for i := range xs {
					xs[i], ys[i] = guard, guard
				}
				for i := off; i < off+n; i++ {
					xs[i], ys[i] = value(), value()
				}
				xg, yg := append([]float64(nil), xs...), append([]float64(nil), ys...)
				rotAVX2(xs[off:off+n], ys[off:off+n], cs[0], cs[1])
				rotGo(xg[off:off+n], yg[off:off+n], cs[0], cs[1])
				for i := range xs {
					if math.Float64bits(xs[i]) != math.Float64bits(xg[i]) || math.Float64bits(ys[i]) != math.Float64bits(yg[i]) {
						t.Fatalf("c=%v s=%v n=%d offset %d: entry %d is (%v, %v), rotGo gives (%v, %v)",
							cs[0], cs[1], n, off, i-off, xs[i], ys[i], xg[i], yg[i])
					}
				}
			}
		}
	}
}

// The AVX2 chain kernel reads a step as 24 bytes: q, then c, then s.
func TestStepLayoutMatchesChainKernel(t *testing.T) {
	var st step
	if unsafe.Sizeof(st) != 24 || unsafe.Offsetof(st.q) != 0 || unsafe.Offsetof(st.c) != 8 || unsafe.Offsetof(st.s) != 16 {
		t.Fatalf("step is %d bytes with q, c, s at %d, %d, %d; rot_amd64.s reads 24 at 0, 8, 16",
			unsafe.Sizeof(st), unsafe.Offsetof(st.q), unsafe.Offsetof(st.c), unsafe.Offsetof(st.s))
	}
}

// The AVX2 chain kernel equals chain4Go bit for bit on every row, for
// chains of 0 to 40 steps over rows of 1 to 37 entries (columns
// repeated and p among them included) on rows that start at odd
// offsets, and it writes nothing outside them.
func TestChain4AVX2MatchesGo(t *testing.T) {
	if !useAVX2 {
		t.Skip("this CPU has no AVX2")
	}
	rng := rand.New(rand.NewSource(51))
	value := func() float64 {
		if rng.Intn(3) == 0 {
			return rotSpecials[rng.Intn(len(rotSpecials))]
		}
		return rng.NormFloat64() * math.Pow(2, float64(rng.Intn(40)-20))
	}
	pairs := rotPairs(rng)
	const guard = 12345.678
	for k := 1; k <= 37; k++ {
		for n := 0; n <= 40; n++ {
			off := rng.Intn(4)
			rows := make([]float64, off+4*k+1)
			for i := range rows {
				rows[i] = guard
			}
			for i := off; i < off+4*k; i++ {
				rows[i] = value()
			}
			p := rng.Intn(k)
			steps := make([]step, n)
			for i := range steps {
				cs := pairs[rng.Intn(len(pairs))]
				steps[i] = step{q: rng.Intn(k), c: cs[0], s: cs[1]}
			}
			want := append([]float64(nil), rows...)
			chain4Go(want[off:off+4*k], k, p, steps)
			applyChain4(rows[off:off+4*k], k, p, steps)
			for i := range rows {
				if math.Float64bits(rows[i]) != math.Float64bits(want[i]) {
					t.Fatalf("k=%d, %d steps, p=%d, offset %d: entry %d is %v, chain4Go gives %v",
						k, n, p, off, i-off, rows[i], want[i])
				}
			}
		}
	}
}

// A step whose column is not below k stops the kernel instead of
// writing past the row.
func TestChain4AVX2RejectsColumnOutOfRange(t *testing.T) {
	if !useAVX2 {
		t.Skip("this CPU has no AVX2")
	}
	const k = 5
	rows := make([]float64, 4*k+4)
	if chain4AVX2(rows[:4*k], k, 0, []step{{q: 2, c: 1}, {q: k, c: 1}}) {
		t.Fatal("q = k accepted")
	}
	for i, x := range rows[4*k:] {
		if x != 0 {
			t.Fatalf("entry %d past the rows written", 4*k+i)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("applyChain4 with q = k did not panic")
		}
	}()
	applyChain4(rows[:4*k], k, 0, []step{{q: k, c: 1}})
}
