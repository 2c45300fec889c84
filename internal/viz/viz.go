// Package viz renders mappings and cluster assignments as ASCII art
// for the examples and the CLI: the cluster-grid occupancy of a
// Panorama cluster mapping, and the time-extended PE view of a
// lower-level mapping.
package viz

import (
	"fmt"
	"sort"
	"strings"

	"panorama/internal/arch"
	"panorama/internal/clustermap"
	"panorama/internal/dfg"
	"panorama/internal/verify"
)

// ClusterGrid renders a cluster mapping as an R x C grid, one cell per
// CGRA cluster listing the CDG nodes (letters) mapped there — the same
// view as the paper's Figure 6.
func ClusterGrid(res *clustermap.Result) string {
	cells := make([][]string, res.R)
	width := 4
	for r := range cells {
		cells[r] = make([]string, res.C)
	}
	for v := 0; v < res.CDG.K; v++ {
		for _, c := range res.Cols[v] {
			cells[res.Rows[v]][c] += nodeLabel(v)
		}
	}
	for r := range cells {
		for c := range cells[r] {
			if len(cells[r][c])+2 > width {
				width = len(cells[r][c]) + 2
			}
		}
	}
	var b strings.Builder
	sep := "+" + strings.Repeat(strings.Repeat("-", width)+"+", res.C) + "\n"
	b.WriteString(sep)
	for r := 0; r < res.R; r++ {
		b.WriteString("|")
		for c := 0; c < res.C; c++ {
			fmt.Fprintf(&b, "%*s%*s|", (width+len(cells[r][c]))/2, cells[r][c], width-(width+len(cells[r][c]))/2, "")
		}
		b.WriteString("\n")
		b.WriteString(sep)
	}
	return b.String()
}

// nodeLabel names CDG node v like the paper: A..Z then A1, B1, ...
func nodeLabel(v int) string {
	letter := rune('A' + v%26)
	if v < 26 {
		return string(letter)
	}
	return fmt.Sprintf("%c%d", letter, v/26)
}

// TimeExtended renders a routed mapping as one grid per modulo time
// slot, each cell holding the DFG node executed on that PE in that slot
// (or "." when idle) — the paper's Figure 3 view of the MRRG model, so
// a crossbar-model mapping is refused like everywhere downstream.
func TimeExtended(d *dfg.Graph, a *arch.CGRA, m *verify.Mapping) (string, error) {
	if m.Model != verify.ModelRouted {
		return "", fmt.Errorf("viz: a %s-model mapping has no routed schedule to draw", m.Model)
	}
	var b strings.Builder
	width := 1
	for id := range d.Nodes {
		if l := len(fmt.Sprint(id)); l+1 > width {
			width = l + 1
		}
	}
	for t := 0; t < m.II; t++ {
		fmt.Fprintf(&b, "t=%d (mod %d)\n", t, m.II)
		grid := make(map[int]string)
		for v := range d.Nodes {
			if m.PlaceT[v]%m.II == t {
				grid[m.PlacePE[v]] = fmt.Sprint(v)
			}
		}
		for r := 0; r < a.Rows; r++ {
			for c := 0; c < a.Cols; c++ {
				s, ok := grid[a.PEAt(r, c)]
				if !ok {
					s = "."
				}
				fmt.Fprintf(&b, "%*s", width, s)
				if (c+1)%(a.Cols/a.ClusterCols) == 0 && c+1 < a.Cols {
					b.WriteString(" |")
				}
			}
			b.WriteString("\n")
			if (r+1)%(a.Rows/a.ClusterRows) == 0 && r+1 < a.Rows {
				b.WriteString(strings.Repeat("-", (width)*a.Cols+2*(a.ClusterCols-1)) + "\n")
			}
		}
		b.WriteString("\n")
	}
	return b.String(), nil
}

// PartitionSummary lists each DFG cluster with its size and the ops it
// contains, for the clustering example.
func PartitionSummary(d *dfg.Graph, assign []int, k int) string {
	type cl struct {
		size int
		ops  map[string]int
	}
	cls := make([]cl, k)
	for i := range cls {
		cls[i].ops = make(map[string]int)
	}
	for v, c := range assign {
		cls[c].size++
		cls[c].ops[d.Nodes[v].Op.String()]++
	}
	var b strings.Builder
	for i, c := range cls {
		fmt.Fprintf(&b, "cluster %s: %d nodes (", nodeLabel(i), c.size)
		keys := make([]string, 0, len(c.ops))
		for op := range c.ops {
			keys = append(keys, op)
		}
		sort.Strings(keys)
		for j, op := range keys {
			if j > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%s x%d", op, c.ops[op])
		}
		b.WriteString(")\n")
	}
	return b.String()
}
