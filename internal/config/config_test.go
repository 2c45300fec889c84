package config

import (
	"testing"

	"panorama/internal/arch"
	"panorama/internal/dfg"
	"panorama/internal/kernels"
	"panorama/internal/spr"
	"panorama/internal/verify"
)

func mapped(t *testing.T, g *dfg.Graph, a *arch.CGRA) *verify.Mapping {
	t.Helper()
	res, err := spr.Map(g, a, spr.Options{Seed: 1})
	if err != nil || !res.Success {
		t.Fatalf("map failed: %v", err)
	}
	return res.Mapping
}

func smallDFG() *dfg.Graph {
	g := dfg.New("t")
	ld := g.AddNode(dfg.OpLoad, "")
	ml := g.AddNode(dfg.OpMul, "")
	ad := g.AddNode(dfg.OpAdd, "")
	st := g.AddNode(dfg.OpStore, "")
	g.AddEdge(ld, ml)
	g.AddEdge(ld, ad)
	g.AddEdge(ml, ad)
	g.AddEdge(ad, st)
	g.MustFreeze()
	return g
}

func TestGenerateShape(t *testing.T) {
	g := smallDFG()
	a := arch.Preset4x4()
	m := mapped(t, g, a)
	p, err := Generate(g, a, m)
	if err != nil {
		t.Fatal(err)
	}
	if p.II != m.II {
		t.Fatalf("II mismatch: %d vs %d", p.II, m.II)
	}
	if len(p.Words) != a.NumPEs() {
		t.Fatalf("words for %d PEs, want %d", len(p.Words), a.NumPEs())
	}
	for pe := range p.Words {
		if len(p.Words[pe]) != m.II {
			t.Fatalf("PE %d has %d slots, want %d", pe, len(p.Words[pe]), m.II)
		}
	}
}

func TestGenerateRejectsInvalid(t *testing.T) {
	g := smallDFG()
	a := arch.Preset4x4()
	m := mapped(t, g, a)
	bad := *m
	bad.PlacePE = append([]int(nil), m.PlacePE...)
	bad.PlacePE[0] = -1
	if _, err := Generate(g, a, &bad); err == nil {
		t.Fatal("Generate accepted an invalid mapping")
	}
}

func TestEveryOpConfigured(t *testing.T) {
	g := smallDFG()
	a := arch.Preset4x4()
	m := mapped(t, g, a)
	p, err := Generate(g, a, m)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for pe := range p.Words {
		for _, w := range p.Words[pe] {
			if w.Node >= 0 {
				if seen[w.Node] {
					t.Fatalf("node %d configured twice", w.Node)
				}
				seen[w.Node] = true
				if w.Op != g.Nodes[w.Node].Op {
					t.Fatalf("node %d has op %v, want %v", w.Node, w.Op, g.Nodes[w.Node].Op)
				}
			}
		}
	}
	if len(seen) != g.NumNodes() {
		t.Fatalf("configured %d of %d nodes", len(seen), g.NumNodes())
	}
}

func TestOperandsHaveSources(t *testing.T) {
	g := smallDFG()
	a := arch.Preset4x4()
	m := mapped(t, g, a)
	p, err := Generate(g, a, m)
	if err != nil {
		t.Fatal(err)
	}
	for pe := range p.Words {
		for _, w := range p.Words[pe] {
			if w.Node < 0 {
				continue
			}
			wantOperands := g.InDeg(w.Node)
			if len(w.Operands) != wantOperands {
				t.Fatalf("node %d has %d operand sources, want %d", w.Node, len(w.Operands), wantOperands)
			}
			for _, src := range w.Operands {
				if src.Kind == SrcNone {
					t.Fatalf("node %d has an unconfigured operand", w.Node)
				}
			}
		}
	}
}

func TestStatsAndUtilisation(t *testing.T) {
	g := smallDFG()
	a := arch.Preset4x4()
	m := mapped(t, g, a)
	p, err := Generate(g, a, m)
	if err != nil {
		t.Fatal(err)
	}
	s := p.ComputeStats()
	if s.ActiveFUSlots != g.NumNodes() {
		t.Fatalf("active slots %d, want %d", s.ActiveFUSlots, g.NumNodes())
	}
	if s.TotalFUSlots != a.NumPEs()*m.II {
		t.Fatalf("total slots %d", s.TotalFUSlots)
	}
	u := p.Utilisation()
	if u <= 0 || u > 1 {
		t.Fatalf("utilisation %v", u)
	}
}

func TestKernelProgramGeneration(t *testing.T) {
	if testing.Short() {
		t.Skip("kernel config in -short mode")
	}
	spec, err := kernels.ByName("fir")
	if err != nil {
		t.Fatal(err)
	}
	g := spec.Build(0.2)
	a := arch.Preset8x8()
	m := mapped(t, g, a)
	p, err := Generate(g, a, m)
	if err != nil {
		t.Fatal(err)
	}
	s := p.ComputeStats()
	if s.WireDrives == 0 {
		t.Fatal("no wire drives configured for a multi-PE kernel")
	}
	if s.ActiveFUSlots != g.NumNodes() {
		t.Fatalf("active %d != nodes %d", s.ActiveFUSlots, g.NumNodes())
	}
}

func TestSourceKindString(t *testing.T) {
	if SrcWire.String() != "wire" || SrcRF.String() != "rf" || SrcResult.String() != "res" || SrcNone.String() != "none" {
		t.Fatal("source kind strings wrong")
	}
	if SourceKind(9).String() == "" {
		t.Fatal("unknown kind empty")
	}
}
