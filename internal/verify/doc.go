// Package verify is the mapper-independent legality oracle: one
// specification of what makes a CGRA mapping valid, shared by every
// mapper in the repository and by the differential test harness — and
// the repository's one mapping type. Every mapper builds and returns a
// *Mapping directly, and the simulator, the configuration generator
// and the renderers take it as is.
//
// The lower-level mappers model the hardware differently, so the
// oracle checks two models behind one entry point:
//
//   - ModelRouted (SPR*, SAT*): the mapping carries explicit MRRG routes.
//     Every route must be a real path through the modulo routing
//     resource graph whose elapsed cycles equal exactly what the
//     modulo schedule demands, and no routing resource may carry more
//     distinct value streams than its capacity.
//   - ModelCrossbar (UltraFast*): the single-cycle multi-hop model has
//     no explicit routes; the only physical resource is per-PE
//     per-cycle crossbar forwarding bandwidth, re-derived here from
//     the H-then-V Manhattan path of every inter-PE transfer.
//
// Both models share the placement constraints: every operation on a
// real PE at a non-negative cycle, memory operations on memory-capable
// PEs, cluster-guidance containment, one operation per modulo FU slot,
// and producer-to-consumer timing including recurrence edges
// (consumption at PlaceT[to] + Dist*II must not precede availability
// at PlaceT[from] + latency).
//
// The oracle deliberately re-derives every constraint from scratch —
// it shares no code with the mappers' internal bookkeeping — so a
// mapper bug and an oracle bug must coincide for an illegal mapping to
// slip through. internal/difftest hammers this agreement with random
// DFGs, and every mapper self-checks each mapping it emits by calling
// Check, so the legality specification lives in exactly one place.
package verify
