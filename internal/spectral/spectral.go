// Package spectral implements the DFG clustering stage of Panorama
// (paper §3.1): spectral clustering of the loop-body DFG, the cluster
// sweep over candidate k values, the size imbalance factor used to pick
// balanced partitions, and construction of the Cluster Dependency Graph
// (CDG) consumed by the cluster mapping stage.
package spectral

import (
	"context"
	"fmt"
	"math"
	"sort"

	"panorama/internal/dfg"
	"panorama/internal/faultinject"
	"panorama/internal/kmeans"
	"panorama/internal/linalg"
	"panorama/internal/pool"
)

// Partition is one clustering solution of a DFG.
type Partition struct {
	K      int   // number of clusters
	Assign []int // DFG node -> cluster id (0..K-1)
	Sizes  []int // nodes per cluster

	InterE  int     // DFG edges crossing clusters
	IntraE  int     // DFG edges within clusters
	SizeSTD float64 // standard deviation of cluster sizes
	IF      float64 // imbalance factor: (max-min)/|V|
}

// Embedder caches the spectral embedding of one DFG so that a sweep
// over many k values pays for the eigendecomposition only once.
type Embedder struct {
	g     *dfg.Graph
	eigen *linalg.EigenResult
}

// NewEmbedder computes the Laplacian eigendecomposition of the DFG's
// undirected similarity graph (L = D - A, parallel edges merged with
// weight equal to their multiplicity). It runs to completion; SweepCtx
// runs the same eigensolve under its ctx.
func NewEmbedder(g *dfg.Graph) (*Embedder, error) {
	return newEmbedder(context.Background(), g)
}

func newEmbedder(ctx context.Context, g *dfg.Graph) (*Embedder, error) {
	if err := faultinject.Fire(faultinject.SiteEigensolve); err != nil {
		return nil, err
	}
	n := g.NumNodes()
	if n == 0 {
		return nil, fmt.Errorf("spectral: empty graph")
	}
	lap := Laplacian(g)
	eig, err := linalg.SymmetricEigen(ctx, lap)
	if err != nil {
		return nil, fmt.Errorf("spectral: %w", err)
	}
	return &Embedder{g: g, eigen: eig}, nil
}

// Laplacian returns the unnormalised graph Laplacian L = D - A of the
// DFG's undirected similarity graph. Multi-edges between the same node
// pair contribute their multiplicity to the adjacency weight.
func Laplacian(g *dfg.Graph) *linalg.Matrix {
	n := g.NumNodes()
	lap := linalg.NewMatrix(n, n)
	for _, e := range g.Edges {
		if e.From == e.To {
			continue
		}
		lap.Add(e.From, e.To, -1)
		lap.Add(e.To, e.From, -1)
		lap.Add(e.From, e.From, 1)
		lap.Add(e.To, e.To, 1)
	}
	return lap
}

// Cluster runs k-means on the first k eigenvector coordinates of every
// node and returns the resulting partition with its statistics; ctx is
// checked once per Lloyd iteration.
func (em *Embedder) Cluster(ctx context.Context, k int, seed int64) (*Partition, error) {
	if err := faultinject.Fire(faultinject.SiteKMeans); err != nil {
		return nil, err
	}
	n := em.g.NumNodes()
	if k <= 0 || k > n {
		return nil, fmt.Errorf("spectral: k=%d out of range for %d nodes", k, n)
	}
	pts := make([][]float64, n)
	for i := 0; i < n; i++ {
		row := make([]float64, k)
		for j := 0; j < k; j++ {
			row[j] = em.eigen.Vectors.At(i, j)
		}
		pts[i] = row
	}
	res, err := kmeans.Cluster(ctx, pts, k, kmeans.Options{Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("spectral: %w", err)
	}
	return newPartition(em.g, k, res.Assign), nil
}

// newPartition normalises cluster ids to be dense in [0,K) ordered by
// first appearance, then fills in statistics.
func newPartition(g *dfg.Graph, k int, rawAssign []int) *Partition {
	remap := make(map[int]int)
	assign := make([]int, len(rawAssign))
	for i, c := range rawAssign {
		id, ok := remap[c]
		if !ok {
			id = len(remap)
			remap[c] = id
		}
		assign[i] = id
	}
	k = len(remap)
	p := &Partition{K: k, Assign: assign, Sizes: make([]int, k)}
	for _, c := range assign {
		p.Sizes[c]++
	}
	for _, e := range g.Edges {
		if assign[e.From] == assign[e.To] {
			p.IntraE++
		} else {
			p.InterE++
		}
	}
	p.SizeSTD = stddev(p.Sizes)
	p.IF = imbalance(p.Sizes, len(assign))
	return p
}

func stddev(sizes []int) float64 {
	if len(sizes) == 0 {
		return 0
	}
	mean := 0.0
	for _, s := range sizes {
		mean += float64(s)
	}
	mean /= float64(len(sizes))
	varsum := 0.0
	for _, s := range sizes {
		d := float64(s) - mean
		varsum += d * d
	}
	return math.Sqrt(varsum / float64(len(sizes)))
}

// imbalance returns the paper's imbalance factor: the difference
// between the largest and smallest cluster size relative to the total
// node count.
func imbalance(sizes []int, total int) float64 {
	if len(sizes) == 0 || total == 0 {
		return 0
	}
	min, max := sizes[0], sizes[0]
	for _, s := range sizes[1:] {
		if s < min {
			min = s
		}
		if s > max {
			max = s
		}
	}
	return float64(max-min) / float64(total)
}

// Sweep clusters the DFG for every k in [kMin, kMax] (clamped to the
// node count) and returns the partitions in ascending k order. This is
// lines 1-4 of the paper's Algorithm 1. It runs the k-means stage on
// every available CPU; use SweepCtx for explicit worker and
// cancellation control.
func Sweep(g *dfg.Graph, kMin, kMax int, seed int64) ([]*Partition, error) {
	parts, _, err := SweepCtx(context.Background(), g, kMin, kMax, seed, 0)
	return parts, err
}

// SweepCtx is Sweep with cancellation, a bounded worker pool
// (workers <= 0 means one per CPU), and the pool statistics of the
// fan-out. The Laplacian eigendecomposition — the sweep's shared
// prefix — is computed exactly once, checking ctx once per row of
// rotations; only the per-k k-means stage fans out. Each k clusters
// with the seed seed+k, exactly as the serial loop always has, so the
// result is bit-identical at any worker count: the output slice is
// ordered by k and each entry depends only on (embedding, k, seed).
func SweepCtx(ctx context.Context, g *dfg.Graph, kMin, kMax int, seed int64, workers int) ([]*Partition, pool.Stats, error) {
	if kMin < 1 {
		kMin = 1
	}
	if kMax > g.NumNodes() {
		kMax = g.NumNodes()
	}
	if kMin > kMax {
		return nil, pool.Stats{}, fmt.Errorf("spectral: empty sweep range [%d,%d]", kMin, kMax)
	}
	em, err := newEmbedder(ctx, g)
	if err != nil {
		return nil, pool.Stats{}, err
	}
	parts := make([]*Partition, kMax-kMin+1)
	stats, err := pool.Run(ctx, workers, len(parts), func(i int) error {
		k := kMin + i
		p, err := em.Cluster(ctx, k, seed+int64(k))
		if err != nil {
			return err
		}
		parts[i] = p
		return nil
	})
	if err != nil {
		return nil, stats, err
	}
	return parts, stats, nil
}

// TopBalanced returns the n partitions with the lowest imbalance factor
// (ties broken by fewer inter-cluster edges, then by smaller k). This
// is the paper's Top3BalancedPartitions with n = 3.
func TopBalanced(parts []*Partition, n int) []*Partition {
	sorted := make([]*Partition, len(parts))
	copy(sorted, parts)
	sort.SliceStable(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		if a.IF != b.IF {
			return a.IF < b.IF
		}
		if a.InterE != b.InterE {
			return a.InterE < b.InterE
		}
		return a.K < b.K
	})
	if n > len(sorted) {
		n = len(sorted)
	}
	return sorted[:n]
}
