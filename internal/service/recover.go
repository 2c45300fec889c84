package service

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"log"
	"time"

	"panorama/internal/arch"
	"panorama/internal/core"
	"panorama/internal/dfg"
	"panorama/internal/journal"
	"panorama/internal/wire"
)

// Journal blob carrying everything needed to re-run a job after a
// restart: the resolved request, not the wire request, so recovery is
// independent of server defaults that may have changed. Layout
// (version 2): version byte, DFG binary blob (PDFG codec), arch
// description JSON, mapper string, seed zigzag varint, the Total budget
// as a zigzag varint — blobs and strings as uvarint length + raw bytes
// (internal/wire). Version 1 carried three stage budgets before Total;
// it still replays, keeping Total (no release ever set the others).
const jobPayloadVersion = 2

// maxAttempts bounds journal replays per job. A job runs at most once
// per process, so a recovered job whose journal already records
// maxAttempts runs has killed that many processes: it fails instead of
// running again.
const maxAttempts = 3

// encodeJobPayload flattens a resolved request into the journal blob.
func encodeJobPayload(req *resolved) ([]byte, error) {
	gbin, err := req.graph.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("service: job payload: %w", err)
	}
	var ab bytes.Buffer
	if err := req.arch.WriteJSON(&ab); err != nil {
		return nil, fmt.Errorf("service: job payload: %w", err)
	}
	buf := make([]byte, 0, 64+len(gbin)+ab.Len()+len(req.mapper))
	buf = append(buf, jobPayloadVersion)
	buf = wire.AppendBytes(buf, gbin)
	buf = wire.AppendBytes(buf, ab.Bytes())
	buf = wire.AppendString(buf, req.mapper)
	buf = binary.AppendVarint(buf, req.seed)
	buf = binary.AppendVarint(buf, int64(req.budgets.Total))
	return buf, nil
}

// decodeJobPayload rebuilds a resolved request from a journal blob,
// re-validating the graph, architecture and mapper, and recomputing
// the fingerprint (which may legitimately drift across a CodeVersion
// bump — the caller compares it against the journaled key).
func decodeJobPayload(data []byte) (*resolved, error) {
	r := wire.NewReader("service: job payload", data)
	version := r.Byte()
	if r.Err() == nil && (version == 0 || version > jobPayloadVersion) {
		return nil, fmt.Errorf("service: job payload: unsupported version %d", version)
	}
	gbin := r.Bytes()
	ajson := r.Bytes()
	mapper := r.String()
	seed := r.Varint()
	if version == 1 {
		r.Varint() // the retired Clustering, ClusterMap and Lower budgets
		r.Varint()
		r.Varint()
	}
	budgets := core.Budgets{Total: time.Duration(r.Varint())}
	if err := r.Done(); err != nil {
		return nil, err
	}
	g := new(dfg.Graph)
	if err := g.UnmarshalBinary(gbin); err != nil {
		return nil, fmt.Errorf("service: job payload: %w", err)
	}
	if err := g.Freeze(); err != nil {
		return nil, fmt.Errorf("service: job payload: %w", err)
	}
	a, err := arch.ReadJSON(bytes.NewReader(ajson))
	if err != nil {
		return nil, fmt.Errorf("service: job payload: %w", err)
	}
	if err := core.CheckMapper(mapper); err != nil {
		return nil, fmt.Errorf("service: job payload: %w", err)
	}
	return &resolved{
		graph:       g,
		arch:        a,
		mapper:      mapper,
		seed:        seed,
		budgets:     budgets,
		fingerprint: Key(g, a, mapper, seed, budgets),
	}, nil
}

// recoverJobs rebuilds the pending jobs replayed from the journal:
// jobs whose computation has meanwhile landed in the cache resolve
// instantly (and are journaled complete), undecodable payloads are
// cancelled in the journal so they stop replaying, jobs the journal
// has already started maxAttempts times fail without running (each of
// those runs ended with its process), and everything else re-enters
// the queue under its original job ID with its prior attempt count.
// Runs during New, before the workers start, so no locking is needed.
func (s *Server) recoverJobs(pending []journal.Record) {
	for _, rec := range pending {
		if n := jobIDNum(rec.JobID); n > s.nextID {
			s.nextID = n
		}
		req, err := decodeJobPayload(rec.Blob)
		if err != nil {
			log.Printf("service: journal: dropping job %s: %v", rec.JobID, err)
			s.jlog(journal.Record{Kind: journal.Cancelled, JobID: rec.JobID, Key: rec.Key,
				Note: "unreadable payload on recovery"})
			continue
		}
		job := newJob(rec.JobID, req)
		job.attempts = rec.Attempt
		// Re-synthesize the event history the pre-crash process streamed
		// — one queued event, one running event per journaled attempt,
		// with the same sequence numbers — so a client resuming with
		// Last-Event-ID spanning the restart sees neither duplicated nor
		// missing transitions.
		seedRecoveredEvents(job, rec.Attempt)
		if req.fingerprint != rec.Key {
			// A CodeVersion bump (or changed fingerprint inputs) since
			// the journal was written; the job re-runs under its new
			// identity.
			log.Printf("service: journal: job %s fingerprint drifted across restart (code version bump?)", rec.JobID)
		}
		s.jobs[job.ID] = job
		s.met.recovered.Inc()
		if e, ok := s.cache.Get(job.Fingerprint); ok {
			// The computation finished before the crash (or another
			// node shares the cache dir): resolve without re-running.
			s.finish(job, endRecovered, e.Summary, nil)
			continue
		}
		if rec.Attempt >= maxAttempts {
			s.finish(job, endFailed, core.Summary{}, fmt.Errorf(
				"service: job %s: started %d time(s), and no run finished", job.ID, rec.Attempt))
			continue
		}
		if _, dup := s.flight[job.Fingerprint]; !dup {
			s.flight[job.Fingerprint] = job
		}
		s.queue <- job // capacity ≥ len(pending), never blocks here
	}
}

// jobIDNum parses the sequence number out of a "job-%06d" id (0 when
// the id doesn't match).
func jobIDNum(id string) int {
	var n int
	if _, err := fmt.Sscanf(id, "job-%d", &n); err != nil {
		return 0
	}
	return n
}

// jlog appends a lifecycle record to the journal, when one is
// configured. Append failures are logged and counted, never fatal: the
// service keeps serving without durability rather than refusing work.
func (s *Server) jlog(r journal.Record) {
	if s.journal == nil {
		return
	}
	if err := s.journal.Append(r); err != nil {
		s.met.journalErrors.Inc()
		log.Printf("service: %v", err)
	}
}
