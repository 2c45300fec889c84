package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"panorama/internal/arch"
	"panorama/internal/kernels"
	"panorama/internal/obs"
	"panorama/internal/verify"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/guided_identity.golden from this tree's results")

// mappingHash is the content address of a mapping — II, placement and
// routes — computed as the benchmark computes it, so a hash here reads
// against the ones its runs print.
func mappingHash(m *verify.Mapping) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	put(int64(m.II))
	for i := range m.PlacePE {
		put(int64(m.PlacePE[i]))
		put(int64(m.PlaceT[i]))
	}
	for _, route := range m.Routes {
		put(int64(len(route)))
		for _, n := range route {
			put(int64(n))
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// TestGuidedIdentityGolden pins what the guided pipeline decides, layer
// by layer, for fixed inputs: the twelve kernels at quick scale on 8x8
// through pan-ultrafast, and edn/mmul/fir through pan-spr. Each line is
// the chosen partition (K, Inter-E), the cluster mapping (ζ1, ζ2,
// cost), the lower mapping (II, hash) and the branch-and-bound nodes
// the run spent. BENCH_baseline.json gates unguided rows only, so this
// file is the one place outside benchmark/ that notices a re-rolled
// partition or a different ILP search tree. A change that means to
// move a line regenerates the file with -update and says so.
func TestGuidedIdentityGolden(t *testing.T) {
	type run struct{ kernel, lower string }
	var runs []run
	for _, k := range kernels.Names() {
		runs = append(runs, run{k, "ultrafast"})
	}
	for _, k := range []string{"edn", "mmul", "fir"} {
		runs = append(runs, run{k, "spr"})
	}

	const nodesKey = "panorama_ilp_nodes_total"
	a := arch.Preset8x8()
	var got strings.Builder
	for _, r := range runs {
		spec, err := kernels.ByName(r.kernel)
		if err != nil {
			t.Fatal(err)
		}
		lower, err := NewLowerByName(r.lower, 1)
		if err != nil {
			t.Fatal(err)
		}
		before := obs.Default.Snapshot()[nodesKey]
		res, err := MapPanoramaCtx(context.Background(), spec.Build(0.25), a, lower,
			Config{Seed: 1, RelaxOnFailure: true, Workers: 1})
		if err != nil {
			t.Fatalf("%s through pan-%s: %v", r.kernel, r.lower, err)
		}
		if !res.Lower.Success || res.Lower.Mapping == nil {
			t.Fatalf("%s through pan-%s: no mapping", r.kernel, r.lower)
		}
		nodes := obs.Default.Snapshot()[nodesKey] - before
		fmt.Fprintf(&got, "%s pan-%s k=%d interE=%d zeta1=%d zeta2=%d cost=%d ii=%d map=%s ilp.nodes=%.0f\n",
			r.kernel, r.lower, res.Partition.K, res.Partition.InterE,
			res.ClusterMap.Zeta1, res.ClusterMap.Zeta2, res.ClusterMap.Cost,
			res.Lower.II, mappingHash(res.Lower.Mapping), nodes)
	}

	const path = "testdata/guided_identity.golden"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("guided pipeline drifted from %s (rerun with -update only if the change means to re-roll):\ngot:\n%swant:\n%s", path, got.String(), want)
	}
}
