package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// Event is one job state transition as streamed by the SSE surface.
// Seq is the job-scoped event sequence number used as the SSE event
// id, so a client can resume with Last-Event-ID after a disconnect;
// the numbering is derived from the same transition points the journal
// records (one queued event, one running event per execution attempt,
// one terminal event), which makes it stable across a crash and
// journal-recovery restart: a reconnecting client never sees a
// transition twice and never misses the terminal one.
type Event struct {
	Seq  int       `json:"seq"`
	Type JobStatus `json:"type"`
	Job  JobView   `json:"job"`
	// Recovered marks events synthesized from the journal on restart
	// (the transition happened in a previous process).
	Recovered bool `json:"recovered,omitempty"`
}

// eventLog is the append-only, replayable record of one job's state
// transitions. Appends wake every streaming subscriber; reads are
// cursor-based so a resumed stream replays exactly the missed suffix.
type eventLog struct {
	mu     sync.Mutex
	events []Event
	wake   chan struct{} // closed and replaced on every append
}

func newEventLog() *eventLog { return &eventLog{wake: make(chan struct{})} }

// append records one transition with the next sequence number and
// wakes subscribers. recovered marks a transition synthesized from the
// journal at recovery time.
func (l *eventLog) append(typ JobStatus, view JobView, recovered bool) {
	l.mu.Lock()
	l.events = append(l.events, Event{Seq: len(l.events) + 1, Type: typ, Job: view, Recovered: recovered})
	close(l.wake)
	l.wake = make(chan struct{})
	l.mu.Unlock()
}

// since returns a copy of the events with Seq > seq and the wake
// channel that will be closed on the next append. Callers must grab
// the channel from the same call that saw no new events, or they can
// miss a wakeup.
func (l *eventLog) since(seq int) ([]Event, <-chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq < 0 {
		seq = 0
	}
	var out []Event
	if seq < len(l.events) {
		out = append(out, l.events[seq:]...)
	}
	return out, l.wake
}

// seedRecoveredEvents rebuilds a recovered job's event history from
// its journaled attempt count: seq 1 is the queued transition, seqs
// 2..1+attempts are the running transitions of the attempts the
// previous process charged. The numbering matches what that process
// streamed live (queued first, then one running event per attempt), so
// a resume cursor taken before the crash stays valid after it.
func seedRecoveredEvents(job *Job, attempts int) {
	view := job.View()
	job.events.append(JobQueued, view, true)
	for a := 1; a <= attempts; a++ {
		job.events.append(JobRunning, view, true)
	}
}

// terminalStatus reports whether st ends a job's lifecycle (and hence
// its event stream).
func terminalStatus(st JobStatus) bool {
	return st == JobDone || st == JobFailed || st == JobRequeued
}

// emit appends one transition to the job's event log.
func (j *Job) emit(typ JobStatus) { j.events.append(typ, j.View(), false) }

// lastEventID parses the SSE resume cursor: the standard
// Last-Event-ID header, with a lastEventID query parameter accepted
// for clients (curl, dashboards) that cannot set headers.
func lastEventID(r *http.Request) int {
	s := r.Header.Get("Last-Event-ID")
	if s == "" {
		s = r.URL.Query().Get("lastEventID")
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 {
		return 0
	}
	return n
}

// sseStream is one open server-sent-event response: the resume cursor
// the client sent, the flusher, and the keep-alive ticker for idle
// stretches.
type sseStream struct {
	met    *metrics
	w      http.ResponseWriter
	f      http.Flusher
	hb     *time.Ticker
	cursor int // Last-Event-ID the client resumed from (0 = from the start)
}

// openSSE switches the response into a server-sent-event stream and
// counts it; ok is false (and the error already written) when the
// connection cannot stream. The caller defers close.
func (s *Server) openSSE(w http.ResponseWriter, r *http.Request) (*sseStream, bool) {
	f, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return nil, false
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	f.Flush()
	st := &sseStream{met: s.met, w: w, f: f, hb: time.NewTicker(s.opts.SSEHeartbeat), cursor: lastEventID(r)}
	s.met.sseStreams.Inc()
	if st.cursor > 0 {
		s.met.sseResumed.Inc()
	}
	s.met.sseActive.Add(1)
	return st, true
}

func (st *sseStream) close() {
	st.hb.Stop()
	st.met.sseActive.Add(-1)
}

// send frames one event — id, event name, single-line JSON data, blank
// line — and reports whether the client is still there.
func (st *sseStream) send(id int, event string, v any) bool {
	data, err := json.Marshal(v)
	if err != nil {
		return false
	}
	if _, err := fmt.Fprintf(st.w, "id: %d\nevent: %s\ndata: %s\n\n", id, event, data); err != nil {
		return false
	}
	st.f.Flush()
	st.met.sseSent.Inc()
	return true
}

// keepalive writes the idle-stream comment line.
func (st *sseStream) keepalive() bool {
	if _, err := io.WriteString(st.w, ": keepalive\n\n"); err != nil {
		return false
	}
	st.f.Flush()
	return true
}

// handleJobEvents streams a job's state transitions as SSE
// (GET /v1/jobs/{id}/events). Events carry the job-scoped sequence
// number as the SSE id; a reconnecting client sends Last-Event-ID and
// receives exactly the transitions it missed. The stream ends after
// the terminal event (or immediately, when the client already
// acknowledged it).
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "not-found", fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	st, ok := s.openSSE(w, r)
	if !ok {
		return
	}
	defer st.close()

	cursor := st.cursor
	for {
		evs, wake := job.events.since(cursor)
		for _, ev := range evs {
			if !st.send(ev.Seq, string(ev.Type), ev) {
				return
			}
			cursor = ev.Seq
			if terminalStatus(ev.Type) {
				return
			}
		}
		// A client resuming past the terminal event gets an empty,
		// immediately-closed stream instead of a hang.
		select {
		case <-job.Done():
			if evs, _ := job.events.since(cursor); len(evs) == 0 {
				return
			}
			continue
		default:
		}
		select {
		case <-wake:
		case <-job.Done():
		case <-st.hb.C:
			if !st.keepalive() {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

// handleBatchEvents streams a batch's aggregate progress as SSE
// (GET /v1/batch/{id}/events): one "item" event per batch item, in
// item-index order, each emitted once the item is terminal, followed
// by a final "batch" summary event. Because the order is the item
// order — not completion order — the event ids are deterministic
// (item i has id i+1) and Last-Event-ID resume replays exactly the
// unseen suffix.
func (s *Server) handleBatchEvents(w http.ResponseWriter, r *http.Request) {
	b, ok := s.Batch(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "not-found", fmt.Errorf("unknown batch %q", r.PathValue("id")))
		return
	}
	st, ok := s.openSSE(w, r)
	if !ok {
		return
	}
	defer st.close()

	sp := b.trace.Root().Child("batch.stream")
	sp.Set("resumeFrom", int64(st.cursor))
	defer sp.End()

	sent := int64(0)
	defer func() { sp.Add("events", sent) }()
	for i := st.cursor; i < len(b.items); i++ {
		it := b.items[i]
		if it.job != nil {
		wait:
			for {
				select {
				case <-it.job.Done():
					break wait
				case <-st.hb.C:
					if !st.keepalive() {
						return
					}
				case <-r.Context().Done():
					return
				}
			}
		}
		if !st.send(i+1, "item", b.itemView(i)) {
			return
		}
		sent++
	}
	if st.cursor <= len(b.items) {
		if !st.send(len(b.items)+1, "batch", b.View()) {
			return
		}
		sent++
	}
}
