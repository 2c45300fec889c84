package arch

import (
	"fmt"
	"strings"
)

// Preset4x4 returns the small 4x4 CGRA used for the Table 1b SPR*
// datapoint: a single cluster of 4x4 PEs.
func Preset4x4() *CGRA {
	g, err := New(Config{
		Name: "cgra4", Rows: 4, Cols: 4,
		ClusterRows: 1, ClusterCols: 1,
		NumRegs: 8, RFReadPorts: 4, RFWritePorts: 4,
		InterClusterLinks: 0,
	})
	if err != nil {
		panic(err)
	}
	return g
}

// Preset8x8 returns the scaled-down default experiment target: an 8x8
// PE array arranged as the paper's 4x4 cluster grid (so the scattering
// ILPs solve the same R=C=4 problem), with 2x2 PEs per cluster and four
// express links per adjacent cluster pair.
func Preset8x8() *CGRA {
	g, err := New(Config{
		Name: "cgra8", Rows: 8, Cols: 8,
		ClusterRows: 4, ClusterCols: 4,
		NumRegs: 8, RFReadPorts: 4, RFWritePorts: 4,
		InterClusterLinks: 4,
	})
	if err != nil {
		panic(err)
	}
	return g
}

// Preset9x9 returns the 9x9 CGRA used in the Figure 8 power-efficiency
// comparison: a 3x3 cluster grid of 3x3-PE clusters.
func Preset9x9() *CGRA {
	g, err := New(Config{
		Name: "cgra9", Rows: 9, Cols: 9,
		ClusterRows: 3, ClusterCols: 3,
		NumRegs: 8, RFReadPorts: 4, RFWritePorts: 4,
		InterClusterLinks: 6,
	})
	if err != nil {
		panic(err)
	}
	return g
}

// Preset16x16 returns the paper's main evaluation target: 16x16 PEs as
// a 4x4 grid of 4x4-PE clusters with six inter-cluster links per
// adjacent cluster pair, eight registers and four RF read/write ports
// per PE.
func Preset16x16() *CGRA {
	g, err := New(Config{
		Name: "cgra16", Rows: 16, Cols: 16,
		ClusterRows: 4, ClusterCols: 4,
		NumRegs: 8, RFReadPorts: 4, RFWritePorts: 4,
		InterClusterLinks: 6,
	})
	if err != nil {
		panic(err)
	}
	return g
}

// presets is the one table of preset names, in the order the error
// text of Preset lists them.
var presets = []struct {
	name  string
	build func() *CGRA
}{
	{"4x4", Preset4x4},
	{"8x8", Preset8x8},
	{"9x9", Preset9x9},
	{"16x16", Preset16x16},
}

// Preset builds the preset architecture called name ("4x4", "8x8",
// "9x9", "16x16" — the CLI's -arch and the service's Request.Arch
// values); the error lists the names.
func Preset(name string) (*CGRA, error) {
	names := make([]string, len(presets))
	for i, p := range presets {
		if p.name == name {
			return p.build(), nil
		}
		names[i] = p.name
	}
	return nil, fmt.Errorf("unknown architecture %q (want %s)", name, strings.Join(names, ", "))
}
