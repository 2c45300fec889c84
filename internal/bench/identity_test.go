package bench

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
	"panorama/internal/core"
	"panorama/internal/kernels"
	"panorama/internal/satmap"
	"panorama/internal/service"
	"panorama/internal/spr"
	"panorama/internal/ultrafast"
	"panorama/internal/verify"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files of the tests that run (identity.golden, ii_ensemble.golden) from this tree's results")

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

// TestIdentityGolden is the repository's one identity gate: what every
// mapper decides for fixed inputs, one line per run, compared with ==
// against testdata/identity.golden. All runs take the twelve kernels at
// quick scale with seed 1:
//
//   - pan-ultrafast on all twelve and pan-spr on edn/mmul/fir, 8x8: the
//     chosen partition (K, Inter-E), the cluster mapping (ζ1, ζ2, cost),
//     the lower mapping (II, hash) and the branch-and-bound nodes spent;
//   - unguided SPR* on 8x8: graph size, MII, II, hash and the four
//     search-effort counters summed over the II ladder;
//   - SAT* on the ~30-node prefixes (smallDFG) on 4x4, the size the
//     exact mapper solves within its default budget: the same, with the
//     solver's counters;
//   - unguided UltraFast* on 8x8: II, hash and placements tried.
//
// Every number is an exact function of (kernel, fabric, mapper, seed),
// so there is no tolerance. A change that means to move a line
// regenerates the file with -update and says so.
func TestIdentityGolden(t *testing.T) {
	const (
		scale    = 0.25
		seed     = 1
		satNodes = 30
	)
	delta := func(key string, run func()) float64 {
		before := EffortSnapshot()[key]
		run()
		return EffortSnapshot()[key] - before
	}
	hashOf := func(row string, ok bool, m *verify.Mapping) string {
		if !ok || m == nil {
			t.Fatalf("%s: no mapping", row)
		}
		return mappingHash(m)
	}

	var got strings.Builder
	a8 := arch.Preset8x8()

	type guided struct{ kernel, lower string }
	var runs []guided
	for _, k := range kernels.Names() {
		runs = append(runs, guided{k, "ultrafast"})
	}
	for _, k := range []string{"edn", "mmul", "fir"} {
		runs = append(runs, guided{k, "spr"})
	}
	for _, r := range runs {
		row := r.kernel + " pan-" + r.lower
		spec, err := kernels.ByName(r.kernel)
		if err != nil {
			t.Fatal(err)
		}
		lower, err := core.NewLowerByName(r.lower, seed)
		if err != nil {
			t.Fatal(err)
		}
		var res *core.Result
		nodes := delta("panorama_ilp_nodes_total", func() {
			res, err = core.MapPanoramaCtx(context.Background(), spec.Build(scale), a8, lower,
				core.Config{Seed: seed, RelaxOnFailure: true, Workers: 1})
		})
		if err != nil {
			t.Fatalf("%s: %v", row, err)
		}
		fmt.Fprintf(&got, "%s k=%d interE=%d zeta1=%d zeta2=%d cost=%d ii=%d map=%s ilp.nodes=%.0f\n",
			row, res.Partition.K, res.Partition.InterE,
			res.ClusterMap.Zeta1, res.ClusterMap.Zeta2, res.ClusterMap.Cost,
			res.Lower.II, hashOf(row, res.Lower.Success, res.Lower.Mapping), nodes)
	}

	for _, spec := range kernels.All() {
		row := spec.Name + " spr"
		g := spec.Build(scale)
		res, err := spr.Map(g, a8, spr.Options{Seed: seed})
		if err != nil {
			t.Fatalf("%s: %v", row, err)
		}
		var pf, ripups, sa int
		var relax int64
		for _, att := range res.Attempts {
			pf += att.PFIters
			ripups += att.RipUps
			sa += att.SAMoves
			relax += att.Relax
		}
		fmt.Fprintf(&got, "%s nodes=%d edges=%d mii=%d ii=%d map=%s pf=%d ripups=%d sa=%d relax=%d\n",
			row, g.NumNodes(), g.NumEdges(), res.MII, res.II, hashOf(row, res.Success, res.Mapping),
			pf, ripups, sa, relax)
	}

	a4 := arch.Preset4x4()
	for _, spec := range kernels.All() {
		row := spec.Name + " sat"
		g := smallDFG(spec.Build(scale), satNodes)
		res, err := satmap.Map(g, a4, satmap.Options{Seed: seed})
		if err != nil {
			t.Fatalf("%s: %v", row, err)
		}
		st := res.Stats()
		fmt.Fprintf(&got, "%s nodes=%d edges=%d mii=%d ii=%d map=%s conflicts=%d propagations=%d decisions=%d refines=%d\n",
			row, g.NumNodes(), g.NumEdges(), res.MII, res.II, hashOf(row, res.Success, res.Mapping),
			st.Conflicts, st.Propagations, st.Decisions, res.Refines())
	}

	for _, spec := range kernels.All() {
		row := spec.Name + " ultrafast"
		var res *ultrafast.Result
		var err error
		placements := delta("panorama_ultrafast_placements_total", func() {
			res, err = ultrafast.Map(spec.Build(scale), a8, ultrafast.Options{})
		})
		if err != nil {
			t.Fatalf("%s: %v", row, err)
		}
		fmt.Fprintf(&got, "%s mii=%d ii=%d map=%s placements=%.0f\n",
			row, res.MII, res.II, hashOf(row, res.Success, res.Mapping), placements)
	}

	compareGolden(t, "testdata/identity.golden", got.String())
}

// compareGolden compares got with the golden file at path, line by
// line, and lists every drifted line; with -update it rewrites the file
// instead.
func compareGolden(t *testing.T, path, got string) {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	var drift strings.Builder
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			fmt.Fprintf(&drift, "  got:  %s\n  want: %s\n", g, w)
		}
	}
	t.Fatalf("mappings drifted from %s (rerun with -update only if the change means to move them):\n%s", path, drift.String())
}

// TestCodeVersionLedger ties the service's cache key to the identity
// golden: testdata/codeversion.ledger records, one "version sha256"
// line per service.CodeVersion, the digest of identity.golden that
// version was cut at. A change that moves a golden row cannot pass
// without also bumping CodeVersion and appending its line, so a cache
// never serves a mapping from before the move under the same key.
func TestCodeVersionLedger(t *testing.T) {
	golden, err := os.ReadFile("testdata/identity.golden")
	if err != nil {
		t.Fatal(err)
	}
	ledger, err := os.ReadFile("testdata/codeversion.ledger")
	if err != nil {
		t.Fatal(err)
	}
	digest := fmt.Sprintf("%x", sha256.Sum256(golden))
	for _, line := range strings.Split(strings.TrimSpace(string(ledger)), "\n") {
		var version int
		var recorded string
		if _, err := fmt.Sscanf(line, "%d %s", &version, &recorded); err != nil {
			t.Fatalf("ledger line %q: %v", line, err)
		}
		if version != service.CodeVersion {
			continue
		}
		if recorded != digest {
			t.Fatalf("identity.golden digest %s, but CodeVersion %d was recorded at %s: a change that moves a mapping must bump service.CodeVersion and append \"%d %s\" to the ledger",
				digest, version, recorded, service.CodeVersion+1, digest)
		}
		return
	}
	t.Fatalf("ledger has no line for CodeVersion %d: append \"%d %s\"", service.CodeVersion, service.CodeVersion, digest)
}
