package kmeans_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"panorama/internal/kernels"
	"panorama/internal/kmeans"
	"panorama/internal/linalg"
	"panorama/internal/spectral"
)

// sameClustering holds Cluster to the reference seeding and the
// full-sum nearest: equal Assign, Centers and Inertia, compared with
// ==, not a tolerance.
func sameClustering(t *testing.T, name string, pts [][]float64, k int, seed int64) {
	t.Helper()
	got, err := kmeans.Cluster(context.Background(), pts, k, kmeans.Options{Seed: seed})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want := kmeans.ClusterRef(pts, k, kmeans.Options{Seed: seed})
	if !reflect.DeepEqual(got.Assign, want.Assign) || !reflect.DeepEqual(got.Centers, want.Centers) || got.Inertia != want.Inertia {
		t.Fatalf("%s: clustering differs from the reference one (inertia %v, reference %v)", name, got.Inertia, want.Inertia)
	}
}

// The inputs k-means sees in the pipeline: the first k Laplacian
// eigenvector coordinates of every node, for the twelve kernels at
// quick scale, every k of the sweep from 2, and the sweep's seed
// seed+k.
func TestSeedingMatchesReferenceOnSpectralEmbeddings(t *testing.T) {
	for _, spec := range kernels.All() {
		g := spec.Build(0.25)
		if err := g.Freeze(); err != nil {
			t.Fatal(err)
		}
		eig, err := linalg.SymmetricEigen(context.Background(), spectral.Laplacian(g))
		if err != nil {
			t.Fatal(err)
		}
		n := g.NumNodes()
		for k := 2; k <= 32 && k <= n; k++ {
			pts := make([][]float64, n)
			for i := range pts {
				pts[i] = make([]float64, k)
				for j := range pts[i] {
					pts[i][j] = eig.Vectors.At(i, j)
				}
			}
			sameClustering(t, fmt.Sprintf("%s k=%d", spec.Name, k), pts, k, 1+int64(k))
		}
	}
}

// Duplicated points put zeros in d2 and ties in the running minimum,
// and with few distinct points the "all points are centers" branch and
// the empty-cluster re-seed run.
func TestSeedingMatchesReferenceOnDuplicatedPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		distinct, dim := 1+rng.Intn(12), 1+rng.Intn(5)
		base := make([][]float64, distinct)
		for i := range base {
			base[i] = make([]float64, dim)
			for j := range base[i] {
				base[i][j] = rng.NormFloat64()
			}
		}
		pts := make([][]float64, 8+rng.Intn(60))
		for i := range pts {
			pts[i] = base[rng.Intn(distinct)]
		}
		k := 1 + rng.Intn(min(len(pts), 16))
		sameClustering(t, fmt.Sprintf("trial %d (%d points, %d distinct, k=%d)", trial, len(pts), distinct, k), pts, k, int64(trial))
	}
}

// Points on a small integer lattice have exactly representable squared
// distances, so centres tie and partial sums land exactly on the best
// distance so far: nearest must stop only where the full sum could not
// win, and break ties toward the first centre as the full sums do.
func TestClusterMatchesReferenceOnLatticeTies(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 16; trial++ {
		dim := 1 + rng.Intn(6)
		pts := make([][]float64, 32+rng.Intn(48))
		for i := range pts {
			pts[i] = make([]float64, dim)
			for j := range pts[i] {
				pts[i][j] = float64(rng.Intn(5) - 2)
			}
		}
		for k := 2; k <= 32; k++ {
			sameClustering(t, fmt.Sprintf("trial %d (%d points in %d dimensions, k=%d)", trial, len(pts), dim, k), pts, k, int64(trial))
		}
	}
}
