package mrrg

import (
	"testing"

	"panorama/internal/arch"
)

func TestNewRejectsBadII(t *testing.T) {
	if _, err := New(arch.Preset4x4(), 0); err == nil {
		t.Fatal("accepted II=0")
	}
}

func TestNodeCounts(t *testing.T) {
	a := arch.Preset4x4()
	g, err := New(a, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Per (pe,t): FU + RES + RPORT + WPORT + 8 regs = 12 uniform nodes.
	// Wires: 4x4 mesh has 2*(3*4+4*3)=48 directed links + 16 bypasses.
	wantUniform := 16 * 3 * 12
	wantLinks := (48 + 16) * 3
	if g.NumNodes != wantUniform+wantLinks {
		t.Fatalf("NumNodes = %d, want %d", g.NumNodes, wantUniform+wantLinks)
	}
	if g.NumFUs() != 48 {
		t.Fatalf("NumFUs = %d, want 48", g.NumFUs())
	}
	if g.NumLinks() != 64 {
		t.Fatalf("NumLinks = %d, want 64", g.NumLinks())
	}
}

func TestNodeAccessorsConsistent(t *testing.T) {
	a := arch.Preset4x4()
	g, err := New(a, 4)
	if err != nil {
		t.Fatal(err)
	}
	for pe := 0; pe < a.NumPEs(); pe++ {
		for tt := 0; tt < 4; tt++ {
			fu := g.FUNode(pe, tt)
			if g.Kinds[fu] != KindFU || int(g.PEOf[fu]) != pe || int(g.TimeOf[fu]) != tt {
				t.Fatalf("FUNode(%d,%d) inconsistent: %s", pe, tt, g.Describe(fu))
			}
			res := g.ResNode(pe, tt)
			if g.Kinds[res] != KindRes {
				t.Fatalf("ResNode wrong kind")
			}
			for r := 0; r < a.NumRegs; r++ {
				reg := g.RegNode(pe, r, tt)
				if g.Kinds[reg] != KindReg || int(g.RegOf[reg]) != r {
					t.Fatalf("RegNode(%d,%d,%d) inconsistent", pe, r, tt)
				}
			}
			if g.Kinds[g.RPortNode(pe, tt)] != KindRPort || g.Kinds[g.WPortNode(pe, tt)] != KindWPort {
				t.Fatal("port node kinds wrong")
			}
		}
	}
	for li := 0; li < g.NumLinks(); li++ {
		for tt := 0; tt < 4; tt++ {
			id := g.LinkNode(li, tt)
			if g.Kinds[id] != KindLink || int(g.TimeOf[id]) != tt {
				t.Fatalf("LinkNode(%d,%d) inconsistent: %s", li, tt, g.Describe(id))
			}
			from, _ := g.LinkEnds(li)
			if int(g.PEOf[id]) != from {
				t.Fatalf("LinkNode PEOf = %d, want driver %d", g.PEOf[id], from)
			}
		}
	}
}

// TestLinkOfInvertsLinkNode checks the O(1) reverse lookup on the
// smallest and the largest preset: every (wire, slot) round-trips, and
// no uniform-block node claims a wire.
func TestLinkOfInvertsLinkNode(t *testing.T) {
	for _, a := range []*arch.CGRA{arch.Preset4x4(), arch.Preset16x16()} {
		const ii = 3
		g, err := New(a, ii)
		if err != nil {
			t.Fatal(err)
		}
		for li := 0; li < g.NumLinks(); li++ {
			for tt := 0; tt < ii; tt++ {
				if got := g.LinkOf(g.LinkNode(li, tt)); got != li {
					t.Fatalf("%s: LinkOf(LinkNode(%d,%d)) = %d", a.Name, li, tt, got)
				}
			}
		}
		for id := 0; id < g.NumNodes; id++ {
			if g.Kinds[id] != KindLink && g.LinkOf(id) != -1 {
				t.Fatalf("%s: LinkOf(%s) = %d, want -1", a.Name, g.Describe(id), g.LinkOf(id))
			}
		}
	}
}

func TestTimeWrapsModII(t *testing.T) {
	g, err := New(arch.Preset4x4(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.FUNode(0, 3) != g.FUNode(0, 0) {
		t.Fatal("time did not wrap")
	}
	if g.FUNode(0, -1) != g.FUNode(0, 2) {
		t.Fatal("negative time did not wrap")
	}
	if g.LinkNode(0, 3) != g.LinkNode(0, 0) {
		t.Fatal("link time did not wrap")
	}
}

func TestCapacities(t *testing.T) {
	a := arch.Preset4x4()
	g, err := New(a, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g.Cap[g.FUNode(1, 0)] != 1 || g.Cap[g.ResNode(1, 0)] != 1 || g.Cap[g.RegNode(1, 3, 0)] != 1 {
		t.Fatal("unit capacities wrong")
	}
	if int(g.Cap[g.RPortNode(1, 0)]) != a.RFReadPorts {
		t.Fatalf("rport capacity = %d", g.Cap[g.RPortNode(1, 0)])
	}
	if int(g.Cap[g.WPortNode(1, 0)]) != a.RFWritePorts {
		t.Fatalf("wport capacity = %d", g.Cap[g.WPortNode(1, 0)])
	}
	if g.Cap[g.LinkNode(0, 0)] != 1 {
		t.Fatal("link capacity must be 1")
	}
}

// Every Adv edge must advance the time slot by exactly one (mod II) and
// every non-Adv edge must stay in the same slot.
func TestEdgeTimeSemantics(t *testing.T) {
	g, err := New(arch.Preset8x8(), 4)
	if err != nil {
		t.Fatal(err)
	}
	for from := 0; from < g.NumNodes; from++ {
		for _, e := range g.Succs(int32(from)) {
			ft, tt := int(g.TimeOf[from]), int(g.TimeOf[e.To])
			if e.Adv {
				if (ft+1)%4 != tt {
					t.Fatalf("Adv edge %s -> %s does not advance one cycle", g.Describe(from), g.Describe(int(e.To)))
				}
			} else if ft != tt {
				t.Fatalf("non-Adv edge %s -> %s changes time", g.Describe(from), g.Describe(int(e.To)))
			}
		}
	}
}

// Single-cycle single-hop: within one cycle a value may enter at most
// one wire; chaining wire-to-wire must advance time.
func TestSingleHopInvariant(t *testing.T) {
	g, err := New(arch.Preset8x8(), 2)
	if err != nil {
		t.Fatal(err)
	}
	for from := 0; from < g.NumNodes; from++ {
		if g.Kinds[from] != KindLink {
			continue
		}
		for _, e := range g.Succs(int32(from)) {
			if g.Kinds[e.To] == KindLink && !e.Adv {
				t.Fatalf("same-cycle wire chain %s -> %s violates single-hop", g.Describe(from), g.Describe(int(e.To)))
			}
		}
	}
}

func TestExpressEdgesTargetExpressWires(t *testing.T) {
	a := arch.Preset16x16()
	g, err := New(a, 2)
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for from := 0; from < g.NumNodes; from++ {
		for _, e := range g.Succs(int32(from)) {
			if !e.Express {
				continue
			}
			found++
			if g.Kinds[e.To] != KindLink {
				t.Fatalf("express edge into non-link %s", g.Describe(int(e.To)))
			}
			li := -1
			for j := 0; j < g.NumLinks(); j++ {
				if g.LinkNode(j, int(g.TimeOf[e.To])) == int(e.To) {
					li = j
					break
				}
			}
			from2, to2 := g.LinkEnds(li)
			if a.ClusterOf(from2) == a.ClusterOf(to2) {
				t.Fatalf("express edge targets intra-cluster wire pe%d->pe%d", from2, to2)
			}
		}
		if found > 500 {
			break // enough evidence; the scan is O(n^2) otherwise
		}
	}
	if found == 0 {
		t.Fatal("no express edges in MRRG for an architecture with express links")
	}
}

// A produced value must reach its own FU and any neighbour FU within
// the same cycle: RES -> FU and RES -> LINK -> FU chains must exist.
func TestConsumePathsExist(t *testing.T) {
	a := arch.Preset4x4()
	g, err := New(a, 2)
	if err != nil {
		t.Fatal(err)
	}
	hasEdge := func(from, to int) bool {
		for _, e := range g.Succs(int32(from)) {
			if int(e.To) == to {
				return true
			}
		}
		return false
	}
	for pe := 0; pe < a.NumPEs(); pe++ {
		res := g.ResNode(pe, 0)
		if !hasEdge(res, g.FUNode(pe, 0)) {
			t.Fatalf("PE %d RES cannot feed its own FU", pe)
		}
		for _, q := range a.Neighbors(pe) {
			// find the wire pe->q
			li := -1
			for j := 0; j < g.NumLinks(); j++ {
				f, to := g.LinkEnds(j)
				if f == pe && to == q {
					li = j
					break
				}
			}
			if li < 0 {
				t.Fatalf("no wire %d->%d", pe, q)
			}
			if !hasEdge(res, g.LinkNode(li, 0)) {
				t.Fatalf("RES(pe%d) cannot drive wire to %d", pe, q)
			}
			if !hasEdge(g.LinkNode(li, 0), g.FUNode(q, 0)) {
				t.Fatalf("wire %d->%d cannot feed FU", pe, q)
			}
		}
	}
}

// RF round trip: RES -> WPORT -> REG -> (hold) -> RPORT -> FU.
func TestRegisterFileRoundTrip(t *testing.T) {
	a := arch.Preset4x4()
	g, err := New(a, 4)
	if err != nil {
		t.Fatal(err)
	}
	pe := 5
	hasEdge := func(from, to int) bool {
		for _, e := range g.Succs(int32(from)) {
			if int(e.To) == to {
				return true
			}
		}
		return false
	}
	if !hasEdge(g.ResNode(pe, 0), g.WPortNode(pe, 0)) {
		t.Fatal("missing RES->WPORT")
	}
	if !hasEdge(g.WPortNode(pe, 0), g.RegNode(pe, 2, 1)) {
		t.Fatal("missing WPORT->REG(t+1)")
	}
	if !hasEdge(g.RegNode(pe, 2, 1), g.RegNode(pe, 2, 2)) {
		t.Fatal("missing REG hold")
	}
	if !hasEdge(g.RegNode(pe, 2, 2), g.RPortNode(pe, 2)) {
		t.Fatal("missing REG->RPORT")
	}
	if !hasEdge(g.RPortNode(pe, 2), g.FUNode(pe, 2)) {
		t.Fatal("missing RPORT->FU")
	}
}

// Every PE has a bypass self-wire so values can wait outside the RF.
func TestBypassSelfLoops(t *testing.T) {
	a := arch.Preset4x4()
	g, err := New(a, 2)
	if err != nil {
		t.Fatal(err)
	}
	selfWire := make([]bool, a.NumPEs())
	for li := 0; li < g.NumLinks(); li++ {
		f, to := g.LinkEnds(li)
		if f == to {
			selfWire[f] = true
			// The bypass must chain to itself next cycle.
			found := false
			for _, e := range g.Succs(int32(g.LinkNode(li, 0))) {
				if int(e.To) == g.LinkNode(li, 1) && e.Adv {
					found = true
				}
			}
			if !found {
				t.Fatalf("bypass of PE %d cannot hold across cycles", f)
			}
		}
	}
	for pe, ok := range selfWire {
		if !ok {
			t.Fatalf("PE %d has no bypass wire", pe)
		}
	}
}

func TestDescribe(t *testing.T) {
	g, err := New(arch.Preset4x4(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if s := g.Describe(g.RegNode(3, 1, 1)); s != "reg1(pe3,t1)" {
		t.Fatalf("Describe = %q", s)
	}
	if s := g.Describe(g.FUNode(0, 0)); s != "fu(pe0,t0)" {
		t.Fatalf("Describe = %q", s)
	}
}

func TestKindString(t *testing.T) {
	if KindFU.String() != "fu" || KindReg.String() != "reg" || KindLink.String() != "link" {
		t.Fatal("kind strings wrong")
	}
	if Kind(99).String() == "" {
		t.Fatal("unknown kind empty")
	}
}

// The CSR slab must be internally consistent: monotone row offsets
// covering the whole slab, every stored edge reachable through both
// Succs and FindEdge, and no edge dangling outside the node range.
func TestCSRConsistency(t *testing.T) {
	g, err := New(arch.Preset8x8(), 3)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for n := 0; n < g.NumNodes; n++ {
		succs := g.Succs(int32(n))
		total += len(succs)
		for _, e := range succs {
			if e.To < 0 || int(e.To) >= g.NumNodes {
				t.Fatalf("node %d has edge to out-of-range node %d", n, e.To)
			}
			got, ok := g.FindEdge(int32(n), e.To)
			if !ok || got != e {
				t.Fatalf("FindEdge(%d, %d) = %+v, %v; want %+v", n, e.To, got, ok, e)
			}
		}
	}
	if total != g.NumEdges() {
		t.Fatalf("sum of Succs lengths %d != NumEdges %d", total, g.NumEdges())
	}
	if _, ok := g.FindEdge(int32(g.FUNode(0, 0)), int32(g.FUNode(5, 1))); ok {
		t.Fatal("FindEdge invented an FU->FU edge")
	}
}
