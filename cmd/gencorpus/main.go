// Command gencorpus regenerates the committed seed corpora for the
// native fuzz targets (FuzzMapSPR, FuzzMapUltraFast, FuzzSATEncode,
// FuzzSATSolve, FuzzFingerprint, FuzzCodecRoundTrip,
// FuzzServiceRequest, FuzzJournalReplay). Each entry is written in the
// `go test fuzz v1`
// file format under the owning package's testdata/fuzz directory, so
// `go test` replays them as regression tests on every run and `go test
// -fuzz` seeds exploration from them.
//
// Run from the repository root:
//
//	go run ./cmd/gencorpus
//
// Generation is deterministic; re-running overwrites the gen-* entries
// in place and leaves shrunken regression entries (any other file
// name) alone.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strconv"

	"panorama/internal/dfgen"
	"panorama/internal/journal"
)

// graphParams spans the shapes the differential corpus cares about:
// chains, fan-out, recurrences, and memory pressure, small enough to
// map in milliseconds.
var graphParams = []struct {
	seed int64
	p    dfgen.Params
}{
	{1, dfgen.Params{Nodes: 4}},
	{2, dfgen.Params{Nodes: 8, ExtraEdges: 3}},
	{3, dfgen.Params{Nodes: 10, RecDensity: 0.4}},
	{4, dfgen.Params{Nodes: 12, MemRatio: 0.3}},
	{5, dfgen.Params{Nodes: 16, RecDensity: 0.25, MemRatio: 0.25, MaxFanout: 3}},
	{6, dfgen.Params{Nodes: 20, ExtraEdges: 8, RecDensity: 0.15}},
}

var requests = []string{
	`{"kernel":"fir","arch":"4x4","mapper":"spr","seed":1}`,
	`{"kernel":"conv2d","mapper":"pan-ultrafast","seed":42,"timeoutMS":5000}`,
	`{"kernel":"mmul","arch":"16x16","mapper":"pan-spr","wait":true}`,
	`{"dfg":{"name":"inline","nodes":[{"id":0,"op":1},{"id":1,"op":2}],"edges":[{"from":0,"to":1}]},"arch":"8x8","mapper":"ultrafast"}`,
	`{"kernel":"edn","scale":0.5,"arch":"9x9"}`,
	`{"kernel":"nope"}`,
	`{"mapper":"spr"}`,
	`{"kernel":"fir","arch":"4x4","mapper":"sat","seed":7}`,
	`{"kernel":"cordic","mapper":"pan-sat","seed":3,"timeoutMS":8000}`,
	`{"kernel":"fir","scale":0.25,"arch":"8x8","mapper":"sat","seed":1,"wait":true}`,
	`{"kernel":"latnrm","mapper":"pan-ultrafast"}`,
	`{"mapper":"nonesuch"}`,
}

// cnfEntries seed FuzzSATSolve in its total byte decoding (first byte
// picks the variable count, then literal bytes with zero terminating a
// clause): trivially sat units, a direct x ∧ ¬x contradiction, an
// implication chain forcing propagation, a pigeonhole-style clash that
// needs real conflict analysis, and an empty-ish input.
var cnfEntries = [][]byte{
	{},
	{3, 2, 4, 0, 3, 5, 0},
	{1, 4, 0, 5, 0},
	{11, 2, 5, 9, 0, 3, 4, 0, 7, 8, 11, 0},
	{7, 3, 4, 0, 5, 6, 0, 7, 8, 0, 9, 10, 0, 3, 5, 7, 9, 0},
	{5, 2, 0, 3, 6, 0, 7, 10, 0, 11, 0},
}

func main() {
	graphEntries := make([][]byte, len(graphParams))
	for i, gp := range graphParams {
		g := dfgen.Generate(gp.seed, gp.p)
		enc, err := dfgen.ToBytes(g)
		if err != nil {
			log.Fatalf("encoding corpus graph %d: %v", i, err)
		}
		graphEntries[i] = enc
	}
	for _, dir := range []string{
		"internal/spr/testdata/fuzz/FuzzMapSPR",
		"internal/ultrafast/testdata/fuzz/FuzzMapUltraFast",
		"internal/satmap/testdata/fuzz/FuzzSATEncode",
		"internal/dfg/testdata/fuzz/FuzzFingerprint",
	} {
		writeCorpus(dir, graphEntries)
	}
	writeCorpus("internal/sat/testdata/fuzz/FuzzSATSolve", cnfEntries)
	// The codec fuzz target reads the input both as generator bytes and
	// as a binary-codec payload, so its corpus seeds both prongs: the
	// dfgen entries above plus each graph's canonical binary encoding.
	codecEntries := append([][]byte(nil), graphEntries...)
	for i, gp := range graphParams {
		enc, err := dfgen.Generate(gp.seed, gp.p).MarshalBinary()
		if err != nil {
			log.Fatalf("binary-encoding corpus graph %d: %v", i, err)
		}
		codecEntries = append(codecEntries, enc)
	}
	writeCorpus("internal/dfg/testdata/fuzz/FuzzCodecRoundTrip", codecEntries)
	reqEntries := make([][]byte, len(requests))
	for i, r := range requests {
		reqEntries[i] = []byte(r)
	}
	writeCorpus("internal/service/testdata/fuzz/FuzzServiceRequest", reqEntries)
	writeCorpus("internal/journal/testdata/fuzz/FuzzJournalReplay", journalEntries())
}

// journalEntries seeds FuzzJournalReplay with the segment shapes the
// replay path must survive: a well-formed segment produced by the real
// writer, the same segment torn mid-record, a header with no records,
// raw garbage, and a bit flip inside a record body (a CRC mismatch).
func journalEntries() [][]byte {
	dir, err := os.MkdirTemp("", "gencorpus-journal")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	j, err := journal.Open(dir, journal.Options{NoSync: true})
	if err != nil {
		log.Fatalf("journal corpus: %v", err)
	}
	recs := []journal.Record{
		{Kind: journal.Submitted, JobID: "job-000001", Key: "fp-1", Blob: []byte("payload-one")},
		{Kind: journal.Started, JobID: "job-000001", Attempt: 1, Note: "pan-spr"},
		{Kind: journal.Submitted, JobID: "job-000002", Key: "fp-2", Blob: []byte("payload-two")},
		{Kind: journal.Completed, JobID: "job-000001"},
	}
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			log.Fatalf("journal corpus append: %v", err)
		}
	}
	if err := j.Close(); err != nil {
		log.Fatalf("journal corpus close: %v", err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "*.pjrn"))
	if err != nil || len(segs) == 0 {
		log.Fatalf("journal corpus: no segment written (%v)", err)
	}
	intact, err := os.ReadFile(segs[0])
	if err != nil {
		log.Fatal(err)
	}
	torn := append([]byte(nil), intact[:len(intact)-3]...)
	flipped := append([]byte(nil), intact...)
	flipped[len(flipped)/2] ^= 0x40
	return [][]byte{
		intact,
		torn,
		[]byte("PJRN\x01"),
		[]byte("garbage, not a journal at all"),
		flipped,
	}
}

func writeCorpus(dir string, entries [][]byte) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	for i, data := range entries {
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
		path := filepath.Join(dir, fmt.Sprintf("gen-%02d", i))
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("wrote %d entries to %s\n", len(entries), dir)
}
