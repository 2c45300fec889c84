package bench

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"panorama/internal/arch"
	"panorama/internal/core"
	"panorama/internal/kernels"
	"panorama/internal/satmap"
	"panorama/internal/spr"
	"panorama/internal/verify"
)

// PerfSchemaVersion is bumped whenever the snapshot format or the
// measured workload changes incompatibly; benchdiff refuses to compare
// snapshots across versions. Version 2 added per-mapper rows: "spr"
// (the original workload, unchanged), "sat" (the exact mapper on
// small-scale kernel prefixes) and "portfolio" (the racing mapper on
// the full quick workload).
const PerfSchemaVersion = 2

// PerfKernel is one (kernel, mapper) perf measurement: wall time of a
// full unguided mapping (MRRG construction included), the mapping
// identity, and the deterministic search-effort counters the run spent.
//
// Wall time is machine-dependent; the counters and the mapping hash are
// exact functions of (kernel, arch, mapper, seed) and therefore
// comparable across machines — benchdiff gates on them and treats wall
// time as a same-machine signal only. Portfolio rows are the exception:
// the race winner depends on wall-clock timing, so they are exempt from
// the identity and effort gates (see DiffPerf).
type PerfKernel struct {
	Kernel string `json:"kernel"`
	Mapper string `json:"mapper,omitempty"` // "" in v1 snapshots means "spr"
	Nodes  int    `json:"nodes"`
	Edges  int    `json:"edges"`

	MII    int    `json:"mii"`
	II     int    `json:"ii,omitempty"` // 0 when the mapping failed
	MapSHA string `json:"mapSHA,omitempty"`
	WallNS int64  `json:"wallNS"` // fastest of the snapshot's reps

	// SPR* search-effort counters.
	PFIters int   `json:"pfIters,omitempty"`
	RipUps  int   `json:"ripups,omitempty"`
	SAMoves int   `json:"saMoves,omitempty"`
	Relax   int64 `json:"relaxations"`

	// SAT* solver-effort counters.
	Conflicts    int64 `json:"conflicts,omitempty"`
	Propagations int64 `json:"propagations,omitempty"`
	Decisions    int64 `json:"decisions,omitempty"`
	Refines      int   `json:"refines,omitempty"`

	// Winner names the portfolio member that produced the row's
	// mapping (portfolio rows only; informational, not gated).
	Winner string `json:"winner,omitempty"`
}

// PerfSnapshot is one committed point of the performance trajectory
// (a BENCH_*.json file): the twelve paper kernels mapped by unguided
// SPR* on the quick-config fabric.
type PerfSnapshot struct {
	SchemaVersion int    `json:"schemaVersion"`
	CreatedAt     string `json:"createdAt"`
	GoVersion     string `json:"goVersion"`
	GOOS          string `json:"goos"`
	GOARCH        string `json:"goarch"`

	Arch        string  `json:"arch"`
	KernelScale float64 `json:"kernelScale"`
	Seed        int64   `json:"seed"`
	Reps        int     `json:"reps"`

	Kernels []PerfKernel `json:"kernels"`
}

// satBenchNodes bounds the SAT* rows' workload: a connected ~30-node
// prefix of each kernel on the 4x4 preset, the scale at which the
// exact mapper reliably solves within its default budget. The full
// quick-scale kernels (100+ nodes at MII 2-3 on 8x8) are out of a
// bounded CDCL budget's reach, so gating those rows would only record
// deterministic failures.
const satBenchNodes = 30

// RunPerf measures every paper kernel reps times and returns the
// snapshot (fastest rep per kernel): unguided SPR* on the quick-config
// 8x8 fabric, SAT* on the ~30-node kernel prefixes on 4x4 (see
// satBenchNodes), and the portfolio racer on the same workload as
// SPR*. The effort counters and mapping hashes are identical across
// reps — each solo mapper is deterministic per seed — so only the wall
// time is subject to the min-of-reps treatment; portfolio rows are
// wall-clock races and carry no gated identity.
func RunPerf(reps int, seed int64) (PerfSnapshot, error) {
	if reps <= 0 {
		reps = 3
	}
	const scale = 0.25
	snap := PerfSnapshot{
		SchemaVersion: PerfSchemaVersion,
		CreatedAt:     time.Now().UTC().Format(time.RFC3339),
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		Arch:          "8x8",
		KernelScale:   scale,
		Seed:          seed,
		Reps:          reps,
	}
	for _, spec := range kernels.All() {
		g := spec.Build(scale)
		g.MustFreeze()
		pk := PerfKernel{Kernel: spec.Name, Mapper: "spr", Nodes: g.NumNodes(), Edges: g.NumEdges()}
		for rep := 0; rep < reps; rep++ {
			a := arch.Preset8x8()
			start := time.Now()
			res, err := spr.Map(g, a, spr.Options{Seed: seed})
			wall := time.Since(start).Nanoseconds()
			if err != nil {
				return snap, fmt.Errorf("bench: perf run of %s: %w", spec.Name, err)
			}
			if rep == 0 || wall < pk.WallNS {
				pk.WallNS = wall
			}
			if rep == 0 {
				pk.MII = res.MII
				if res.Success {
					pk.II = res.II
					pk.MapSHA = mappingSHA(res.Mapping)
				}
				for _, att := range res.Attempts {
					pk.PFIters += att.PFIters
					pk.RipUps += att.RipUps
					pk.SAMoves += att.SAMoves
					pk.Relax += att.Relax
				}
			}
		}
		snap.Kernels = append(snap.Kernels, pk)
	}
	for _, spec := range kernels.All() {
		small := smallDFG(spec.Build(scale), satBenchNodes)
		pk := PerfKernel{Kernel: spec.Name, Mapper: "sat", Nodes: small.NumNodes(), Edges: small.NumEdges()}
		for rep := 0; rep < reps; rep++ {
			a := arch.Preset4x4()
			start := time.Now()
			res, err := satmap.Map(small, a, satmap.Options{Seed: seed})
			wall := time.Since(start).Nanoseconds()
			if err != nil {
				return snap, fmt.Errorf("bench: sat perf run of %s: %w", spec.Name, err)
			}
			if rep == 0 || wall < pk.WallNS {
				pk.WallNS = wall
			}
			if rep == 0 {
				pk.MII = res.MII
				if res.Success {
					pk.II = res.II
					pk.MapSHA = mappingSHA(res.Mapping)
				}
				st := res.Stats()
				pk.Conflicts = st.Conflicts
				pk.Propagations = st.Propagations
				pk.Decisions = st.Decisions
				pk.Refines = res.Refines()
			}
		}
		snap.Kernels = append(snap.Kernels, pk)
	}
	for _, spec := range kernels.All() {
		g := spec.Build(scale)
		g.MustFreeze()
		pk := PerfKernel{Kernel: spec.Name, Mapper: "portfolio", Nodes: g.NumNodes(), Edges: g.NumEdges()}
		for rep := 0; rep < reps; rep++ {
			a := arch.Preset8x8()
			lower := core.NewPortfolioLower(seed)
			start := time.Now()
			res, err := lower.Map(context.Background(), g, a, nil)
			wall := time.Since(start).Nanoseconds()
			if err != nil {
				return snap, fmt.Errorf("bench: portfolio perf run of %s: %w", spec.Name, err)
			}
			if rep == 0 || wall < pk.WallNS {
				pk.WallNS = wall
			}
			if rep == 0 {
				pk.MII = res.MII
				if res.Success {
					pk.II = res.II
				}
				pk.Winner = res.Winner
			}
		}
		snap.Kernels = append(snap.Kernels, pk)
	}
	return snap, nil
}

// mappingSHA hashes a mapping's full content — II, placement and every
// route — so two snapshots can prove byte-identical mapping results,
// whichever mapper produced them.
func mappingSHA(m *verify.Mapping) string {
	h := sha256.New()
	var buf [8]byte
	wr := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	wr(int64(m.II))
	wr(int64(len(m.PlacePE)))
	for i := range m.PlacePE {
		wr(int64(m.PlacePE[i]))
		wr(int64(m.PlaceT[i]))
	}
	wr(int64(len(m.Routes)))
	for _, r := range m.Routes {
		wr(int64(len(r)))
		for _, n := range r {
			wr(int64(n))
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// PerfDiff is the outcome of comparing a fresh snapshot against a
// committed baseline.
type PerfDiff struct {
	// Violations fail the comparison: schema/config mismatches, II or
	// mapping-hash drift, and effort-counter regressions beyond the
	// tolerance.
	Violations []string
	// Rows is the human-readable per-kernel table.
	Rows []PerfDiffRow
	// WallSpeedup is the geometric-mean old/new wall-time ratio
	// (>1 = the new snapshot is faster).
	WallSpeedup float64
}

// PerfDiffRow is one (kernel, mapper) baseline-vs-new comparison.
type PerfDiffRow struct {
	Kernel    string
	Mapper    string
	OldWallNS int64
	NewWallNS int64
	WallRatio float64 // old/new: >1 = faster now
	OldRelax  int64
	NewRelax  int64
	Identical bool // same II and mapping hash (portfolio rows: always true, exempt)
}

// rowMapper normalizes a row's mapper for cross-version keys: v1
// snapshots predate the Mapper field and were always SPR*.
func rowMapper(k PerfKernel) string {
	if k.Mapper == "" {
		return "spr"
	}
	return k.Mapper
}

// DiffPerf compares a new snapshot against the baseline. tol is the
// allowed fractional growth of the deterministic effort counters
// (machine-independent; a growth beyond it is an algorithmic
// regression). wallTol, when positive, additionally gates wall time —
// meaningful only for snapshots from the same machine; pass 0 to
// report wall ratios without gating.
func DiffPerf(base, cur PerfSnapshot, tol, wallTol float64) PerfDiff {
	var d PerfDiff
	fail := func(format string, args ...any) {
		d.Violations = append(d.Violations, fmt.Sprintf(format, args...))
	}
	if base.SchemaVersion != cur.SchemaVersion {
		fail("schema version %d vs %d", base.SchemaVersion, cur.SchemaVersion)
		return d
	}
	if base.Arch != cur.Arch || base.KernelScale != cur.KernelScale || base.Seed != cur.Seed {
		fail("workload mismatch: arch %s/%s scale %g/%g seed %d/%d",
			base.Arch, cur.Arch, base.KernelScale, cur.KernelScale, base.Seed, cur.Seed)
		return d
	}
	baseByName := make(map[string]PerfKernel, len(base.Kernels))
	for _, k := range base.Kernels {
		baseByName[k.Kernel+"/"+rowMapper(k)] = k
	}
	wallLogSum, nRatios := 0.0, 0
	for _, nk := range cur.Kernels {
		key := nk.Kernel + "/" + rowMapper(nk)
		bk, ok := baseByName[key]
		if !ok {
			fail("row %s missing from baseline", key)
			continue
		}
		delete(baseByName, key)
		// Portfolio rows are wall-clock races: the winner — and with it
		// the II — legitimately varies with machine load, so only their
		// wall time is reported and the identity/effort gates are
		// skipped.
		race := rowMapper(nk) == "portfolio"
		row := PerfDiffRow{
			Kernel: nk.Kernel, Mapper: rowMapper(nk),
			OldWallNS: bk.WallNS, NewWallNS: nk.WallNS,
			OldRelax: bk.Relax, NewRelax: nk.Relax,
			Identical: race || (bk.II == nk.II && bk.MapSHA == nk.MapSHA),
		}
		if nk.WallNS > 0 {
			row.WallRatio = float64(bk.WallNS) / float64(nk.WallNS)
			wallLogSum += math.Log(row.WallRatio)
			nRatios++
		}
		d.Rows = append(d.Rows, row)
		if race {
			continue
		}
		if !row.Identical {
			fail("%s: mapping drifted (II %d -> %d, hash %.12s -> %.12s)",
				key, bk.II, nk.II, bk.MapSHA, nk.MapSHA)
		}
		checkCounter := func(name string, old, new int64) {
			if float64(new) > float64(old)*(1+tol) {
				fail("%s: %s regressed %d -> %d (> %.0f%% tolerance)", key, name, old, new, tol*100)
			}
		}
		checkCounter("relaxations", bk.Relax, nk.Relax)
		checkCounter("pathfinder iterations", int64(bk.PFIters), int64(nk.PFIters))
		checkCounter("rip-ups", int64(bk.RipUps), int64(nk.RipUps))
		checkCounter("SA moves", int64(bk.SAMoves), int64(nk.SAMoves))
		checkCounter("conflicts", bk.Conflicts, nk.Conflicts)
		checkCounter("propagations", bk.Propagations, nk.Propagations)
		checkCounter("decisions", bk.Decisions, nk.Decisions)
		checkCounter("refines", int64(bk.Refines), int64(nk.Refines))
		if wallTol > 0 && float64(nk.WallNS) > float64(bk.WallNS)*(1+wallTol) {
			fail("%s: wall time regressed %s -> %s (> %.0f%% tolerance)",
				key, time.Duration(bk.WallNS), time.Duration(nk.WallNS), wallTol*100)
		}
	}
	for key := range baseByName {
		fail("row %s missing from new snapshot", key)
	}
	sort.Slice(d.Rows, func(i, j int) bool {
		if d.Rows[i].Mapper != d.Rows[j].Mapper {
			return d.Rows[i].Mapper < d.Rows[j].Mapper
		}
		return d.Rows[i].Kernel < d.Rows[j].Kernel
	})
	sort.Strings(d.Violations)
	if nRatios > 0 {
		d.WallSpeedup = math.Exp(wallLogSum / float64(nRatios))
	}
	return d
}

// Render formats the diff as a fixed-width table plus the verdict line.
func (d *PerfDiff) Render() string {
	out := fmt.Sprintf("%-15s %-10s %12s %12s %8s %14s %14s  %s\n",
		"Kernel", "Mapper", "base", "new", "speedup", "base-relax", "new-relax", "mapping")
	for _, r := range d.Rows {
		ident := "identical"
		if !r.Identical {
			ident = "DRIFTED"
		}
		if r.Mapper == "portfolio" {
			ident = "(race)"
		}
		out += fmt.Sprintf("%-15s %-10s %12s %12s %7.2fx %14d %14d  %s\n",
			r.Kernel, r.Mapper, time.Duration(r.OldWallNS), time.Duration(r.NewWallNS),
			r.WallRatio, r.OldRelax, r.NewRelax, ident)
	}
	out += fmt.Sprintf("geomean wall speedup: %.2fx\n", d.WallSpeedup)
	if len(d.Violations) == 0 {
		out += "OK: no regressions against baseline\n"
	} else {
		for _, v := range d.Violations {
			out += "FAIL: " + v + "\n"
		}
	}
	return out
}
