package bench

import (
	"fmt"
	"strings"
	"testing"

	"panorama/internal/arch"
)

// tiny returns a configuration small enough for unit tests: three
// kernels at 15% scale on the 8x8 preset.
func tiny() Config {
	cfg := Quick()
	cfg.KernelScale = 0.15
	cfg.Kernels = []string{"fir", "cordic", "mmul"}
	cfg.Fig5Kernels = []string{"fir", "cordic"}
	cfg.Fig8Kernels = []string{"fir"}
	return cfg
}

// stripTimings zeroes the wall-clock fields so parallel and serial
// harness runs can be compared for value equality.
func stripTable1aTimings(rows []Table1aRow) []Table1aRow {
	out := append([]Table1aRow(nil), rows...)
	for i := range out {
		out[i].ClusteringSec, out[i].ClusMapSec = 0, 0
	}
	return out
}

func stripCompareTimings(rows []CompareRow) []CompareRow {
	out := append([]CompareRow(nil), rows...)
	for i := range out {
		out[i].BaseSec, out[i].PanSec = 0, 0
	}
	return out
}

// TestHarnessParallelMatchesSerial verifies the determinism contract of
// the -j flag: every table the harness produces is identical (modulo
// wall-clock timings) whether the kernel grid runs serially or through
// the worker pool.
func TestHarnessParallelMatchesSerial(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		serial := tiny()
		serial.Seed = seed
		serial.Workers = 1
		parallel := tiny()
		parallel.Seed = seed
		parallel.Workers = 4

		sRows, err := Table1a(serial)
		if err != nil {
			t.Fatal(err)
		}
		pRows, err := Table1a(parallel)
		if err != nil {
			t.Fatal(err)
		}
		if s, p := fmt.Sprintf("%+v", stripTable1aTimings(sRows)), fmt.Sprintf("%+v", stripTable1aTimings(pRows)); s != p {
			t.Fatalf("seed %d: Table1a differs between -j1 and -j4\nserial:   %s\nparallel: %s", seed, s, p)
		}

		sCmp, err := Figure9(serial)
		if err != nil {
			t.Fatal(err)
		}
		pCmp, err := Figure9(parallel)
		if err != nil {
			t.Fatal(err)
		}
		if s, p := fmt.Sprintf("%+v", stripCompareTimings(sCmp)), fmt.Sprintf("%+v", stripCompareTimings(pCmp)); s != p {
			t.Fatalf("seed %d: Figure9 differs between -j1 and -j4\nserial:   %s\nparallel: %s", seed, s, p)
		}
	}
}

func TestTable1a(t *testing.T) {
	rows, err := Table1a(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Nodes == 0 || r.Edges == 0 || r.K == 0 {
			t.Fatalf("empty row: %+v", r)
		}
		if r.IntraE+r.InterE == 0 {
			t.Fatalf("no edges classified: %+v", r)
		}
		if r.IntraE <= r.InterE {
			t.Errorf("%s: Intra-E (%d) should dominate Inter-E (%d)", r.Kernel, r.IntraE, r.InterE)
		}
		if len(r.Occupancy) == 0 {
			t.Fatalf("no occupancy: %+v", r)
		}
		if r.ClusteringSec <= 0 || r.ClusMapSec < 0 {
			t.Fatalf("missing timings: %+v", r)
		}
	}
	out := RenderTable1a(rows)
	for _, want := range []string{"Kernel", "fir", "average", "Inter-E"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTable1b(t *testing.T) {
	rows, err := Table1b(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d, want 7 literature + 1 measured", len(rows))
	}
	if !rows[7].Measured {
		t.Fatal("last row must be the measured SPR* datapoint")
	}
	out := RenderTable1b(rows)
	if !strings.Contains(out, "SPR* (this repo)") || !strings.Contains(out, "DRESC") {
		t.Fatalf("render incomplete:\n%s", out)
	}
}

func TestFigure5(t *testing.T) {
	series, err := Figure5(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("series = %d", len(series))
	}
	for _, s := range series {
		if len(s.IF) < 3 {
			t.Fatalf("%s: too few points (%d)", s.Kernel, len(s.IF))
		}
		for _, v := range s.IF {
			if v < 0 || v > 1 {
				t.Fatalf("%s: IF %v out of range", s.Kernel, v)
			}
		}
	}
	out := RenderFigure5(series)
	if !strings.Contains(out, "fir") {
		t.Fatalf("render missing kernels:\n%s", out)
	}
}

func TestFigure7SmokeAndRender(t *testing.T) {
	if testing.Short() {
		t.Skip("mapping comparison in -short mode")
	}
	cfg := tiny()
	cfg.Kernels = []string{"fir"}
	rows, err := Figure7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].MII == 0 {
		t.Fatalf("rows = %+v", rows)
	}
	out := RenderCompare(rows, "SPR*", "Pan")
	if !strings.Contains(out, "average") || !strings.Contains(out, "QoM") {
		t.Fatalf("render incomplete:\n%s", out)
	}
}

func TestFigure9Smoke(t *testing.T) {
	cfg := tiny()
	cfg.Kernels = []string{"fir"}
	rows, err := Figure9(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].BaseII == 0 {
		t.Fatal("UltraFast baseline failed on tiny fir")
	}
}

func TestFigure8Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("power comparison in -short mode")
	}
	cfg := tiny()
	rows, err := Figure8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if r.SmallBase <= 0 || r.BigBase <= 0 {
		t.Fatalf("efficiencies missing: %+v", r)
	}
	out := RenderFigure8(rows, "4x4", "8x8")
	if !strings.Contains(out, "average") {
		t.Fatalf("render incomplete:\n%s", out)
	}
}

func TestBFSPartitionCoversAllNodes(t *testing.T) {
	cfg := tiny()
	g, err := cfg.buildKernel("fir")
	if err != nil {
		t.Fatal(err)
	}
	p := bfsPartition(g, 4)
	if len(p.Assign) != g.NumNodes() {
		t.Fatal("assign length wrong")
	}
	for _, c := range p.Assign {
		if c < 0 || c >= 4 {
			t.Fatalf("cluster %d out of range", c)
		}
	}
	if p.InterE+p.IntraE == 0 {
		t.Fatal("no edges counted")
	}
}

func TestAblationClustering(t *testing.T) {
	rows, err := AblationClustering(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Spectral clustering should not cut more edges than a naive
	// BFS chunking on community-structured kernels.
	for _, r := range rows {
		if r.WithValue > r.AblatedValue*1.5 {
			t.Errorf("%s: spectral inter-E %.0f much worse than naive %.0f",
				r.Kernel, r.WithValue, r.AblatedValue)
		}
	}
	out := RenderAblation("clustering", rows)
	if !strings.Contains(out, "clustering") {
		t.Fatal("render missing title")
	}
}

func TestAblationMatchingCut(t *testing.T) {
	rows, err := AblationMatchingCut(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
}

func TestAblationTop3(t *testing.T) {
	rows, err := AblationTop3(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The candidate is chosen by cluster-map cost, not by the QoM it
	// leads to, so the two columns are not ordered; both must map.
	for _, r := range rows {
		if r.WithValue <= 0 || r.WithValue > 1 || r.AblatedValue <= 0 || r.AblatedValue > 1 {
			t.Errorf("%s: QoM top-3 %.3f, top-1 %.3f, want both in (0,1]", r.Kernel, r.WithValue, r.AblatedValue)
		}
	}
}

func TestSmallDFGRespectsLimit(t *testing.T) {
	cfg := Quick()
	g, err := cfg.buildKernel("conv2d")
	if err != nil {
		t.Fatal(err)
	}
	s := smallDFG(g, 30)
	if s.NumNodes() != 30 {
		t.Fatalf("smallDFG has %d nodes", s.NumNodes())
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigs(t *testing.T) {
	q, f := Quick(), Full()
	if q.Arch().NumPEs() != 64 || f.Arch().NumPEs() != 256 {
		t.Fatal("preset sizes wrong")
	}
	if q.KernelScale >= f.KernelScale {
		t.Fatal("quick must be smaller than full")
	}
	if len(q.Kernels) != 12 || len(f.Kernels) != 12 {
		t.Fatal("kernel lists wrong")
	}
	if f.ArchSmall().NumPEs() != 81 {
		t.Fatal("full small arch must be 9x9")
	}
	if q.ArchSmall().NumPEs() != 16 {
		t.Fatal("quick small arch must be 4x4")
	}
	_ = arch.Preset9x9()
}

func TestAblationExpressLinks(t *testing.T) {
	if testing.Short() {
		t.Skip("mapping ablation in -short mode")
	}
	cfg := tiny()
	cfg.Fig5Kernels = []string{"fir"}
	rows, err := AblationExpressLinks(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].WithValue <= 0 {
		t.Fatalf("rows = %+v", rows)
	}
}

func TestSeedStudy(t *testing.T) {
	cfg := tiny()
	cfg.Fig5Kernels = []string{"fir"}
	rows, err := SeedStudy(cfg, []int64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if len(r.IIs)+r.Failures != 2 {
		t.Fatalf("seed accounting wrong: %+v", r)
	}
	out := RenderSeedStudy(rows)
	if !strings.Contains(out, "fir") {
		t.Fatal("render missing kernel")
	}
}

func TestScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling study in -short mode")
	}
	cfg := tiny()
	rows, err := Scaling(cfg, "fir", []float64{0.1, 0.15})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[1].Nodes <= rows[0].Nodes {
		t.Fatalf("scaling did not grow the kernel: %+v", rows)
	}
	for _, r := range rows {
		if r.BaseSec <= 0 || r.PanSec <= 0 {
			t.Fatalf("missing timings: %+v", r)
		}
	}
	out := RenderScaling("fir", rows)
	if !strings.Contains(out, "fir") || !strings.Contains(out, "scale") {
		t.Fatalf("render incomplete:\n%s", out)
	}
}
