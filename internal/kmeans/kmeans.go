// Package kmeans implements Lloyd's algorithm with k-means++ seeding
// over dense float64 feature vectors. It is the final stage of spectral
// clustering: DFG nodes are clustered by their rows in the spectral
// embedding matrix.
package kmeans

import (
	"context"
	"fmt"
	"math"
	"math/rand"
)

// Result holds a clustering: Assign[i] is the cluster of point i,
// Centers[c] the centroid of cluster c, and Inertia the total squared
// distance of points to their centroids.
type Result struct {
	Assign  []int
	Centers [][]float64
	Inertia float64
}

// Options tunes the clustering.
type Options struct {
	MaxIter  int   // Lloyd iterations per restart (default 100)
	Restarts int   // independent seeded restarts, best inertia wins (default 4)
	Seed     int64 // RNG seed (deterministic for a given seed)
}

func (o *Options) defaults() {
	if o.MaxIter <= 0 {
		o.MaxIter = 100
	}
	if o.Restarts <= 0 {
		o.Restarts = 4
	}
}

// Cluster partitions points into k clusters. Every cluster in the
// result is non-empty provided k <= len(points); empty clusters arising
// during iteration are re-seeded with the point farthest from its
// centroid. ctx is checked once per Lloyd iteration, and its error is
// returned once it fires.
func Cluster(ctx context.Context, points [][]float64, k int, opts Options) (*Result, error) {
	n := len(points)
	if n == 0 {
		return nil, fmt.Errorf("kmeans: no points")
	}
	if k <= 0 || k > n {
		return nil, fmt.Errorf("kmeans: k=%d out of range for %d points", k, n)
	}
	dim := len(points[0])
	for i, p := range points {
		if len(p) != dim {
			return nil, fmt.Errorf("kmeans: point %d has dimension %d, want %d", i, len(p), dim)
		}
	}
	opts.defaults()

	var best *Result
	for r := 0; r < opts.Restarts; r++ {
		rng := rand.New(rand.NewSource(opts.Seed + int64(r)*7919))
		res, err := lloyd(ctx, points, seedPlusPlus(points, k, rng), opts.MaxIter, rng)
		if err != nil {
			return nil, err
		}
		if best == nil || res.Inertia < best.Inertia {
			best = res
		}
	}
	return best, nil
}

// lloyd iterates assignment and centroid update from the given centers
// (which it owns) until no point changes cluster.
func lloyd(ctx context.Context, points, centers [][]float64, maxIter int, rng *rand.Rand) (*Result, error) {
	n := len(points)
	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}

	for iter := 0; iter < maxIter; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		changed := false
		for i, p := range points {
			c := nearest(p, centers)
			if c != assign[i] {
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
	return &Result{Assign: assign, Centers: centers, Inertia: inertia}, nil
}

// seedPlusPlus picks k initial centers with the k-means++ scheme:
// first uniformly, the rest proportionally to squared distance from the
// nearest chosen center. d2 keeps that running minimum, so each round
// measures the points against the newest center only; a minimum does
// not depend on the order it is taken in, so the picks are the ones a
// recomputation over all chosen centers would make.
func seedPlusPlus(points [][]float64, k int, rng *rand.Rand) [][]float64 {
	n := len(points)
	centers := make([][]float64, 0, k)
	first := rng.Intn(n)
	centers = append(centers, cloneVec(points[first]))

	d2 := make([]float64, n)
	for len(centers) < k {
		newest, total := centers[len(centers)-1], 0.0
		for i, p := range points {
			if d := sqDist(p, newest); len(centers) == 1 || d < d2[i] {
				d2[i] = d
			}
			total += d2[i]
		}
		var idx int
		if total <= 1e-18 {
			// All points coincide with existing centers; pick uniformly.
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

func recomputeCenters(points [][]float64, assign []int, centers [][]float64, rng *rand.Rand) {
	k := len(centers)
	dim := len(centers[0])
	counts := make([]int, k)
	for c := range centers {
		for j := 0; j < dim; j++ {
			centers[c][j] = 0
		}
	}
	for i, p := range points {
		c := assign[i]
		counts[c]++
		for j, v := range p {
			centers[c][j] += v
		}
	}
	for c := 0; c < k; c++ {
		if counts[c] == 0 {
			// Re-seed an empty cluster at the point farthest from its
			// current centroid, so every cluster stays populated.
			far, farDist := 0, -1.0
			for i, p := range points {
				if d := sqDist(p, centers[assign[i]]); d > farDist && counts[assign[i]] > 1 {
					far, farDist = i, d
				}
			}
			if farDist < 0 {
				far = rng.Intn(len(points))
			}
			counts[assign[far]]--
			assign[far] = c
			counts[c] = 1
			copy(centers[c], points[far])
			continue
		}
		inv := 1 / float64(counts[c])
		for j := 0; j < dim; j++ {
			centers[c][j] *= inv
		}
	}
}

func nearest(p []float64, centers [][]float64) int {
	best, bestD := 0, math.Inf(1)
	for c, ctr := range centers {
		if d := sqDist(p, ctr); d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

func sqDist(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

func cloneVec(v []float64) []float64 {
	out := make([]float64, len(v))
	copy(out, v)
	return out
}
