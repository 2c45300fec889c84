// Package service turns the Panorama mapping pipeline into a
// long-running mapping-as-a-service daemon: solver-based CGRA mapping
// is an expensive, deterministic computation, so it is compiled once
// and served many times.
//
// The server accepts mapping jobs (a named kernel or an inline DFG,
// plus architecture and mapper configuration), runs them on a bounded
// worker set under an abort-only deadline, and serves results from a
// content-addressed cache keyed by a canonical fingerprint of
// (DFG, arch params, mapper+seed, Total budget, code version). Concurrent
// identical submissions coalesce onto one computation (singleflight),
// a bounded queue applies admission control (ErrOverloaded → 429), and
// Shutdown drains in-flight jobs within the caller's deadline. See
// http.go for the endpoint surface and DESIGN.md "Service layer".
package service
