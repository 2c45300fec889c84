package kmeans

import (
	"math"
	"math/rand"
)

// seedPlusPlusRef is k-means++ seeding as it stood before it kept a
// running minimum: every round measures every point against every
// chosen center. It is the oracle seedPlusPlus must agree with pick for
// pick.
func seedPlusPlusRef(points [][]float64, k int, rng *rand.Rand) [][]float64 {
	n := len(points)
	centers := make([][]float64, 0, k)
	first := rng.Intn(n)
	centers = append(centers, cloneVec(points[first]))

	d2 := make([]float64, n)
	for len(centers) < k {
		total := 0.0
		for i, p := range points {
			d2[i] = sqDist(p, centers[0])
			for _, c := range centers[1:] {
				if d := sqDist(p, c); d < d2[i] {
					d2[i] = d
				}
			}
			total += d2[i]
		}
		var idx int
		if total <= 1e-18 {
			idx = rng.Intn(n)
		} else {
			target := rng.Float64() * total
			acc := 0.0
			idx = n - 1
			for i, d := range d2 {
				acc += d
				if acc >= target {
					idx = i
					break
				}
			}
		}
		centers = append(centers, cloneVec(points[idx]))
	}
	return centers
}

// nearestRef is nearest as it stood before it stopped summing at the
// best distance so far: every distance summed in full.
func nearestRef(p []float64, centers [][]float64) int {
	best, bestD := 0, math.Inf(1)
	for c, ctr := range centers {
		if d := sqDist(p, ctr); d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

// lloydRef is lloyd over nearestRef.
func lloydRef(points, centers [][]float64, maxIter int, rng *rand.Rand) *Result {
	assign := make([]int, len(points))
	for i := range assign {
		assign[i] = -1
	}
	for iter := 0; iter < maxIter; iter++ {
		changed := false
		for i, p := range points {
			if c := nearestRef(p, centers); c != assign[i] {
				assign[i] = c
				changed = true
			}
		}
		recomputeCenters(points, assign, centers, rng)
		if !changed {
			break
		}
	}
	inertia := 0.0
	for i, p := range points {
		inertia += sqDist(p, centers[assign[i]])
	}
	return &Result{Assign: assign, Centers: centers, Inertia: inertia}
}

// ClusterRef is Cluster over the reference seeding and the full-sum
// nearest, for the external oracle tests (which need
// internal/spectral, an importer of this package, to build their
// inputs).
func ClusterRef(points [][]float64, k int, opts Options) *Result {
	opts.defaults()
	var best *Result
	for r := 0; r < opts.Restarts; r++ {
		rng := rand.New(rand.NewSource(opts.Seed + int64(r)*7919))
		res := lloydRef(points, seedPlusPlusRef(points, k, rng), opts.MaxIter, rng)
		if best == nil || res.Inertia < best.Inertia {
			best = res
		}
	}
	return best
}
