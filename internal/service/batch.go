package service

import (
	"fmt"
	"net/http"
	"time"

	"panorama/internal/core"
	"panorama/internal/obs"
)

// BatchRequest is the POST /v1/batch wire format: many mapping
// requests admitted (or rejected) as one decision. The top-level
// Arch/Mapper/TimeoutMS fields are defaults applied to items that
// leave the corresponding field empty; Wait blocks the response until
// every admitted item is terminal.
type BatchRequest struct {
	Items []Request `json:"items"`

	Arch      string `json:"arch,omitempty"`
	Mapper    string `json:"mapper,omitempty"`
	TimeoutMS int64  `json:"timeoutMS,omitempty"`
	Wait      bool   `json:"wait,omitempty"`
}

// BatchItemView is the wire form of one batch item's outcome. Cache
// distinguishes how the item was satisfied without a fresh
// computation: "hit" (result cache), "coalesced" (attached to a job
// already in flight before the batch), "dup" (same fingerprint as an
// earlier item of this batch). Items that failed resolution carry
// Error and no job.
type BatchItemView struct {
	Index       int           `json:"index"`
	JobID       string        `json:"jobID,omitempty"`
	Fingerprint string        `json:"fingerprint,omitempty"`
	Status      JobStatus     `json:"status,omitempty"`
	Cache       string        `json:"cache,omitempty"`
	Result      *core.Summary `json:"result,omitempty"`
	Error       *ErrorInfo    `json:"error,omitempty"`
}

// BatchView is the wire form of a batch (POST /v1/batch response and
// the terminal "batch" SSE event).
type BatchView struct {
	ID        string          `json:"id"`
	Items     []BatchItemView `json:"items"`
	Hits      int             `json:"hits"`
	Coalesced int             `json:"coalesced"`
	Dups      int             `json:"dups"`
	Enqueued  int             `json:"enqueued"`
	Errors    int             `json:"errors"`
	Done      bool            `json:"done"`
}

// Batch is one accepted POST /v1/batch admission: the per-item
// outcomes plus the admission trace (served by GET /v1/trace/{id}).
type Batch struct {
	// ID addresses the batch (GET /v1/batch/{id},
	// GET /v1/batch/{id}/events, GET /v1/trace/{id}).
	ID string

	items   []*batchItem
	trace   *obs.Trace
	created time.Time
}

// batchItem is one item's resolution: exactly one of entry (cache
// hit), job (new/coalesced/dup computation) or err (rejected at
// resolve time) is set.
type batchItem struct {
	fingerprint string
	cache       string // "", "hit", "coalesced", "dup"
	entry       *Entry
	job         *Job
	err         *ErrorInfo
}

// itemView snapshots item i for the wire.
func (b *Batch) itemView(i int) BatchItemView {
	it := b.items[i]
	v := BatchItemView{Index: i, Fingerprint: it.fingerprint, Cache: it.cache}
	switch {
	case it.err != nil:
		v.Error = it.err
	case it.entry != nil:
		v.Status = JobDone
		v.Result = &it.entry.Summary
	case it.job != nil:
		jv := it.job.View()
		v.JobID = jv.ID
		v.Status = jv.Status
		v.Result = jv.Result
		v.Error = jv.Error
	}
	return v
}

// View snapshots the whole batch for the wire.
func (b *Batch) View() BatchView {
	v := BatchView{ID: b.ID, Items: make([]BatchItemView, len(b.items)), Done: true}
	for i, it := range b.items {
		iv := b.itemView(i)
		v.Items[i] = iv
		switch it.cache {
		case "hit":
			v.Hits++
		case "coalesced":
			v.Coalesced++
		case "dup":
			v.Dups++
		}
		switch {
		case it.err != nil:
			v.Errors++
		case it.job != nil:
			if it.cache == "" {
				v.Enqueued++
			}
			if !terminalStatus(iv.Status) {
				v.Done = false
			}
		}
	}
	return v
}

// Batch returns a previously accepted batch by id.
func (s *Server) Batch(id string) (*Batch, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.batches[id]
	return b, ok
}

// maxBatchItems bounds the items in one POST /v1/batch request.
const maxBatchItems = 64

// handleBatch is POST /v1/batch: decode, resolve every item against
// the top-level defaults, run one admission decision, and answer with
// the per-item outcomes (200 when nothing is left running, 202
// otherwise). Item-level resolution failures are partial: they occupy
// their slot in the response with a typed error while the rest of the
// batch proceeds.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var breq BatchRequest
	if !decodeJSONBody(w, r, &breq) {
		return
	}
	if len(breq.Items) == 0 {
		httpError(w, http.StatusBadRequest, "bad-request", fmt.Errorf("batch has no items"))
		return
	}
	if len(breq.Items) > maxBatchItems {
		httpError(w, http.StatusBadRequest, "oversized-batch",
			fmt.Errorf("batch has %d items, limit %d", len(breq.Items), maxBatchItems))
		return
	}

	tr := obs.NewTrace("batch")
	admit := tr.Root().Child("batch.admit")
	admit.Set("items", int64(len(breq.Items)))

	items := make([]*batchItem, len(breq.Items))
	reqs := make([]*resolved, len(breq.Items))
	for i := range breq.Items {
		req := breq.Items[i]
		if req.Arch == "" && len(req.ArchDesc) == 0 {
			req.Arch = breq.Arch
		}
		if req.Mapper == "" {
			req.Mapper = breq.Mapper
		}
		if req.TimeoutMS == 0 {
			req.TimeoutMS = breq.TimeoutMS
		}
		req.Wait = false // batch-level Wait only
		res, err := s.resolve(&req)
		if err != nil {
			info := resolveErrorInfo(err)
			items[i] = &batchItem{err: &info}
			s.met.batchItemsError.Inc()
			continue
		}
		reqs[i] = res
		items[i] = &batchItem{}
	}

	s.met.batchRequests.Inc()
	outs, err := s.admit(reqs)
	if err != nil {
		s.met.batchRejected.Inc()
		admit.Set("rejected", s.writeAdmissionError(w, err))
		admit.End()
		return
	}
	for i, it := range items {
		if it.err != nil {
			continue
		}
		it.entry, it.job, it.cache = outs[i].Entry, outs[i].Job, outs[i].disposition()
		if it.entry != nil {
			it.fingerprint = it.entry.Fingerprint
		} else {
			it.fingerprint = it.job.Fingerprint
		}
	}

	b := &Batch{items: items, trace: tr, created: time.Now()}
	s.mu.Lock()
	s.nextBatch++
	b.ID = fmt.Sprintf("batch-%06d", s.nextBatch)
	s.batches[b.ID] = b
	s.mu.Unlock()

	v := b.View()
	s.met.batchItemsHit.Add(int64(v.Hits))
	s.met.batchItemsCoalesced.Add(int64(v.Coalesced))
	s.met.batchItemsDup.Add(int64(v.Dups))
	s.met.batchItemsEnqueued.Add(int64(v.Enqueued))
	admit.Set("hits", int64(v.Hits))
	admit.Set("coalesced", int64(v.Coalesced))
	admit.Set("dups", int64(v.Dups))
	admit.Set("enqueued", int64(v.Enqueued))
	admit.End()

	if breq.Wait {
	wait:
		for _, it := range items {
			if it.job == nil {
				continue
			}
			select {
			case <-it.job.Done():
			case <-r.Context().Done():
				// The client went away mid-wait; the jobs keep running
				// and the batch stays pollable/streamable.
				break wait
			}
		}
		v = b.View()
	}
	status := http.StatusAccepted
	if v.Done {
		status = http.StatusOK
	}
	writeJSON(w, status, v)
}

// handleBatchGet is GET /v1/batch/{id}: the live batch snapshot.
func (s *Server) handleBatchGet(w http.ResponseWriter, r *http.Request) {
	b, ok := s.Batch(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "not-found", fmt.Errorf("unknown batch %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, b.View())
}
