package kmeans

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// blobs generates nPer points around each of the given centers.
func blobs(centers [][]float64, nPer int, spread float64, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	var pts [][]float64
	for _, c := range centers {
		for i := 0; i < nPer; i++ {
			p := make([]float64, len(c))
			for j := range c {
				p[j] = c[j] + rng.NormFloat64()*spread
			}
			pts = append(pts, p)
		}
	}
	return pts
}

func TestClusterErrors(t *testing.T) {
	if _, err := Cluster(context.Background(), nil, 2, Options{}); err == nil {
		t.Fatal("accepted empty input")
	}
	pts := [][]float64{{0}, {1}}
	if _, err := Cluster(context.Background(), pts, 0, Options{}); err == nil {
		t.Fatal("accepted k=0")
	}
	if _, err := Cluster(context.Background(), pts, 3, Options{}); err == nil {
		t.Fatal("accepted k > n")
	}
	if _, err := Cluster(context.Background(), [][]float64{{0, 1}, {0}}, 1, Options{}); err == nil {
		t.Fatal("accepted ragged dimensions")
	}
}

func TestClusterSeparatedBlobs(t *testing.T) {
	centers := [][]float64{{0, 0}, {10, 10}, {0, 10}}
	pts := blobs(centers, 20, 0.3, 1)
	res, err := Cluster(context.Background(), pts, 3, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// All points of one blob must share a cluster id, and the three
	// blobs must get three distinct ids.
	ids := make(map[int]bool)
	for b := 0; b < 3; b++ {
		first := res.Assign[b*20]
		for i := 1; i < 20; i++ {
			if res.Assign[b*20+i] != first {
				t.Fatalf("blob %d split across clusters", b)
			}
		}
		ids[first] = true
	}
	if len(ids) != 3 {
		t.Fatalf("blobs merged: ids=%v", ids)
	}
}

func TestClusterDeterministicForSeed(t *testing.T) {
	pts := blobs([][]float64{{0, 0}, {5, 5}}, 15, 0.5, 2)
	a, err := Cluster(context.Background(), pts, 2, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Cluster(context.Background(), pts, 2, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatal("same seed produced different clusterings")
		}
	}
}

func TestClusterKEqualsN(t *testing.T) {
	pts := [][]float64{{0}, {1}, {2}, {3}}
	res, err := Cluster(context.Background(), pts, 4, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for _, c := range res.Assign {
		if seen[c] {
			t.Fatalf("cluster %d reused with k=n: %v", c, res.Assign)
		}
		seen[c] = true
	}
	if res.Inertia > 1e-12 {
		t.Fatalf("k=n inertia = %v, want 0", res.Inertia)
	}
}

func TestClusterIdenticalPoints(t *testing.T) {
	pts := [][]float64{{1, 1}, {1, 1}, {1, 1}, {1, 1}}
	res, err := Cluster(context.Background(), pts, 2, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Assign) != 4 {
		t.Fatalf("assign length %d", len(res.Assign))
	}
}

func TestNoEmptyClusters(t *testing.T) {
	pts := blobs([][]float64{{0, 0}}, 30, 0.1, 4) // one tight blob, k=5
	res, err := Cluster(context.Background(), pts, 5, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	count := make([]int, 5)
	for _, c := range res.Assign {
		if c < 0 || c >= 5 {
			t.Fatalf("cluster id %d out of range", c)
		}
		count[c]++
	}
	for c, n := range count {
		if n == 0 {
			t.Fatalf("cluster %d empty: %v", c, count)
		}
	}
}

// Property: inertia is non-negative and every assignment is in range.
func TestQuickClusterInvariants(t *testing.T) {
	f := func(seed int64, kRaw, nRaw uint8) bool {
		n := int(nRaw%30) + 4
		k := int(kRaw)%n + 1
		rng := rand.New(rand.NewSource(seed))
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = []float64{rng.Float64() * 10, rng.Float64() * 10}
		}
		res, err := Cluster(context.Background(), pts, k, Options{Seed: seed, Restarts: 2, MaxIter: 30})
		if err != nil {
			return false
		}
		if res.Inertia < 0 {
			return false
		}
		for _, c := range res.Assign {
			if c < 0 || c >= k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: more restarts never worsen the best inertia.
func TestQuickRestartsMonotone(t *testing.T) {
	pts := blobs([][]float64{{0, 0}, {4, 4}, {8, 0}}, 10, 1.0, 6)
	one, err := Cluster(context.Background(), pts, 3, Options{Seed: 2, Restarts: 1})
	if err != nil {
		t.Fatal(err)
	}
	many, err := Cluster(context.Background(), pts, 3, Options{Seed: 2, Restarts: 6})
	if err != nil {
		t.Fatal(err)
	}
	if many.Inertia > one.Inertia+1e-9 {
		t.Fatalf("restarts worsened inertia: %v > %v", many.Inertia, one.Inertia)
	}
}

// A fired context stops the clustering before its next Lloyd
// iteration, with the context's error.
func TestClusterHonoursCtx(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pts := blobs([][]float64{{0, 0}, {10, 10}}, 20, 0.5, 1)
	if res, err := Cluster(ctx, pts, 2, Options{Seed: 1}); res != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ctx: res %v err %v, want nil and context.Canceled", res, err)
	}
}

// An empty cluster is re-seeded at the point farthest from its
// cluster's finished centroid. Cluster 0 is empty and cluster 2's
// points are {10, 11, 20}: measured from their centroid 41/3 the
// farthest is 20, but from their unscaled sum 41 it would be 10, the
// pick of a re-seed that ran before cluster 2 was divided by its count.
func TestEmptyClusterReseedsFromFinishedCentroids(t *testing.T) {
	pts := [][]float64{{0}, {1}, {2}, {10}, {11}, {20}}
	assign := []int{1, 1, 1, 2, 2, 2}
	centers := [][]float64{{100}, {0}, {0}}
	recomputeCenters(pts, assign, centers, rand.New(rand.NewSource(1)))
	if want := []int{1, 1, 1, 2, 2, 0}; !reflect.DeepEqual(assign, want) {
		t.Fatalf("assign %v after the re-seed, want %v", assign, want)
	}
	if want := [][]float64{{20}, {1}, {41.0 / 3}}; !reflect.DeepEqual(centers, want) {
		t.Fatalf("centers %v after the re-seed, want %v", centers, want)
	}

	// From a start that leaves cluster 0 empty, Lloyd ends with every
	// cluster populated.
	res, err := lloyd(context.Background(), pts, [][]float64{{100}, {1}, {13}}, 100, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	count := make([]int, 3)
	for _, c := range res.Assign {
		count[c]++
	}
	for c, n := range count {
		if n == 0 {
			t.Fatalf("cluster %d empty after Lloyd: %v", c, res.Assign)
		}
	}
}
