// Package difftest is the property-based differential harness: it runs
// the repository's mappers over seeded random DFGs (internal/dfgen)
// and checks every successful mapping twice, against the
// mapper-independent legality oracle (internal/verify) and — for
// routed mappings — against the cycle-accurate simulator's
// reference-vs-execute comparison (internal/sim). Every mapper returns
// the oracle's mapping type and validates its own output through the
// same oracle, so a disagreement here means a harness bug or a mapper
// that mutated its result after checking it, and an illegal mapping
// slipping through means a mapper bug and an oracle bug coincided.
//
// The exported helpers are shared with the native fuzz targets in the
// mapper packages, so a fuzzer-found input exercises exactly the same
// checks as the committed differential corpus.
package difftest
