package service

import (
	"context"
	"errors"
	"fmt"
	"log"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"panorama/internal/cluster"
	"panorama/internal/core"
	"panorama/internal/failure"
	"panorama/internal/faultinject"
	"panorama/internal/journal"
	"panorama/internal/obs"
)

// Admission and lifecycle sentinels, mapped onto HTTP status codes by
// the handler layer (429 + Retry-After and 503 respectively).
var (
	ErrOverloaded = errors.New("service: queue full")
	ErrDraining   = errors.New("service: shutting down")
)

// RunFunc executes one mapping job and returns its summary. The
// default (nil) runs the real Panorama pipeline; tests and alternative
// backends substitute their own.
type RunFunc func(ctx context.Context, job *Job) (core.Summary, error)

// Options tunes a Server.
type Options struct {
	// Workers is the number of jobs mapped concurrently (default 1:
	// mapping saturates cores by itself via PipelineWorkers).
	Workers int
	// QueueSize bounds the jobs waiting behind the running ones;
	// a full queue rejects submissions with ErrOverloaded (default 16).
	QueueSize int
	// PipelineWorkers is the worker-pool width inside each pipeline
	// (core.Config.Workers): 0 = one per CPU, 1 = serial.
	PipelineWorkers int
	// CacheSize is the in-memory LRU capacity (default
	// DefaultCacheSize); CacheDir enables disk persistence.
	CacheSize int
	CacheDir  string
	// Budgets is the default budget applied to every job; a request's
	// timeoutMS overrides Budgets.Total.
	Budgets core.Budgets
	// RetryAfter is the Retry-After fallback for 429 responses,
	// used until the drain estimator has observed at least one recent
	// completion (default 1s).
	RetryAfter time.Duration
	// Run substitutes the job executor (tests, alternative backends).
	Run RunFunc
	// WrapRun decorates the executor after the default is resolved, so
	// harnesses can observe every execution of the real pipeline
	// (exactly-once accounting in load tests) without replacing it.
	WrapRun func(RunFunc) RunFunc

	// MaxBodyBytes bounds a request body before JSON decoding; an
	// oversized body gets 413 (default 8 MiB).
	MaxBodyBytes int64
	// SSEHeartbeat is the keep-alive comment interval on idle event
	// streams (default 15s).
	SSEHeartbeat time.Duration

	// JournalDir enables the crash-safe job journal: every accepted
	// job's lifecycle is logged there, and New replays the journal to
	// re-enqueue jobs a previous process left unfinished. Empty
	// disables durability (the pre-journal behavior).
	JournalDir string
	// JournalNoSync skips the fsync per append (tests only).
	JournalNoSync bool

	// MaxAttempts bounds journal replays per job. A job runs at most
	// once per process; a recovered job whose journal already records
	// MaxAttempts runs fails without running again, so a job that kills
	// the process is not replayed forever (default 3).
	MaxAttempts int

	// Cluster shards the content-addressed cache across a panoramad
	// fleet: jobs whose fingerprint another peer owns are forwarded
	// there at execution time (falling back to local execution when the
	// owner is down). Nil runs the server standalone.
	Cluster *cluster.Cluster
	// GossipInterval is the peer health-probe and cache-fill cadence
	// (0 disables gossip; forwarding still works without it).
	GossipInterval time.Duration

	// WebhookURL makes every terminal job fire a signed POST there
	// (per-request Request.Webhook overrides the destination). Empty
	// disables webhooks unless a request names its own.
	WebhookURL string
	// WebhookSecret keys the HMAC-SHA256 body signature
	// (X-Panorama-Signature); empty sends unsigned webhooks.
	WebhookSecret string
	// WebhookTimeout bounds one delivery attempt (default 10s);
	// WebhookMaxAttempts bounds the retry ladder per event (default 3).
	WebhookTimeout     time.Duration
	WebhookMaxAttempts int
}

// JobStatus is the lifecycle of a Job.
type JobStatus string

// Job lifecycle states.
const (
	JobQueued  JobStatus = "queued"
	JobRunning JobStatus = "running"
	JobDone    JobStatus = "done"
	JobFailed  JobStatus = "failed"
	// JobRequeued marks a job a draining server handed back to the
	// journal instead of executing; the next process re-runs it.
	JobRequeued JobStatus = "requeue-on-restart"
)

// Job is one accepted mapping computation. The identity fields are
// immutable; the outcome fields are guarded by mu and published by
// View (and by the done channel for waiters).
type Job struct {
	ID          string
	Fingerprint string
	Mapper      string
	Seed        int64
	Budgets     core.Budgets

	req *resolved

	mu       sync.Mutex
	status   JobStatus
	summary  *core.Summary
	err      error
	trace    *obs.Trace
	created  time.Time
	started  time.Time
	finished time.Time

	attempts int    // executions so far (journal-replayed ones included)
	origin   string // forwarding peer's URL when the job arrived via the ring

	events *eventLog // state transitions for the SSE surface

	done chan struct{} // closed when the job reaches a terminal status
}

// Attempts returns how many executions the job has consumed,
// including attempts replayed from the journal after a restart.
func (j *Job) Attempts() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.attempts
}

// beginAttempt charges one execution and moves the job to running.
func (j *Job) beginAttempt() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.attempts++
	j.status = JobRunning
	if j.started.IsZero() {
		j.started = time.Now()
	}
	return j.attempts
}

// Origin returns the URL of the peer that forwarded this job here (""
// for jobs submitted by ordinary clients).
func (j *Job) Origin() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.origin
}

// startTrace opens the trace of job's current attempt and stamps its
// provenance on the root span: a job replayed from the journal says
// which attempt this is, and every trace says which mapper it ran.
func (j *Job) startTrace() *obs.Trace {
	tr := obs.NewTrace(j.ID)
	j.mu.Lock()
	j.trace = tr
	attempts := j.attempts
	j.mu.Unlock()
	tr.Root().Set("attempt", int64(attempts))
	tr.Root().Set("mapper", j.Mapper)
	return tr
}

// Trace returns the observability trace of the job's pipeline run, or
// nil before the job has started (it is live while the job runs —
// obs.Trace.Dump snapshots open spans safely).
func (j *Job) Trace() *obs.Trace {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.trace
}

// Done returns a channel closed when the job finishes.
func (j *Job) Done() <-chan struct{} { return j.done }

// Err returns the job's terminal error (nil while running or on
// success).
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Summary returns the job's result summary; ok is false until the job
// has one (a failed job may still carry the partial summary the
// pipeline salvaged).
func (j *Job) Summary() (core.Summary, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.summary == nil {
		return core.Summary{}, false
	}
	return *j.summary, true
}

// Server is the mapping-as-a-service engine, independent of its HTTP
// skin (http.go) so tests and embedders can drive it directly.
type Server struct {
	opts    Options
	cache   *Cache
	inputs  *inputs          // shared presets and kernel graphs
	reg     *obs.Registry    // this server's metric families (see WriteMetrics)
	met     *metrics         // the instruments registered on reg
	journal *journal.Journal // nil without Options.JournalDir

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu        sync.Mutex
	jobs      map[string]*Job   // by job id
	flight    map[string]*Job   // by fingerprint: queued or running
	batches   map[string]*Batch // by batch id
	draining  bool
	nextID    int
	nextBatch int

	queue   chan *Job
	running atomic.Int64
	wg      sync.WaitGroup

	drain *drainEstimator // recent completions → Retry-After hints

	webhooks *webhookNotifier

	recentMu sync.Mutex
	recent   []string // most recently completed fingerprints, newest last

	gossipStop chan struct{}
	gossipOnce sync.Once
	gossipWG   sync.WaitGroup
}

// New builds and starts a server (its workers run until Shutdown).
// With Options.JournalDir set it first replays the journal and
// re-enqueues every job a previous process accepted but never
// finished — jobs whose result meanwhile sits in the cache resolve
// without re-running.
func New(opts Options) (*Server, error) {
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	if opts.QueueSize <= 0 {
		opts.QueueSize = 16
	}
	if opts.RetryAfter <= 0 {
		opts.RetryAfter = time.Second
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 3
	}
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = 8 << 20
	}
	if opts.SSEHeartbeat <= 0 {
		opts.SSEHeartbeat = 15 * time.Second
	}
	if opts.WebhookTimeout <= 0 {
		opts.WebhookTimeout = 10 * time.Second
	}
	if opts.WebhookMaxAttempts <= 0 {
		opts.WebhookMaxAttempts = 3
	}
	cache, err := NewCache(opts.CacheSize, opts.CacheDir)
	if err != nil {
		return nil, err
	}
	var jn *journal.Journal
	var pending []journal.Record
	if opts.JournalDir != "" {
		jn, err = journal.Open(opts.JournalDir, journal.Options{NoSync: opts.JournalNoSync})
		if err != nil {
			return nil, err
		}
		pending = jn.Pending()
	}
	qsize := opts.QueueSize
	if len(pending) > qsize {
		// Recovery must never deadlock on its own queue.
		qsize = len(pending)
	}
	s := &Server{
		opts:       opts,
		cache:      cache,
		inputs:     newInputs(),
		journal:    jn,
		jobs:       make(map[string]*Job),
		flight:     make(map[string]*Job),
		batches:    make(map[string]*Batch),
		queue:      make(chan *Job, qsize),
		reg:        obs.NewRegistry(),
		drain:      newDrainEstimator(),
		gossipStop: make(chan struct{}),
	}
	s.met = newMetrics(s)
	s.webhooks = newWebhookNotifier(s.met, opts)
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	if s.opts.Run == nil {
		s.opts.Run = s.runPipeline
	}
	if s.opts.WrapRun != nil {
		s.opts.Run = s.opts.WrapRun(s.opts.Run)
	}
	if len(pending) > 0 {
		s.recoverJobs(pending)
		st := jn.Stats()
		log.Printf("service: journal: recovered %d job(s) from %d segment(s), %d record(s) replayed, %d torn byte(s) dropped",
			len(pending), st.Segments, st.Replayed, st.DroppedBytes)
	}
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for job := range s.queue {
				s.runJob(job)
			}
		}()
	}
	if opts.Cluster != nil && opts.GossipInterval > 0 {
		s.gossipWG.Add(1)
		go s.gossipLoop()
	}
	return s, nil
}

// JournalStats snapshots the job journal's replay and lifetime
// counters; ok is false when the server runs without a journal.
func (s *Server) JournalStats() (journal.Stats, bool) {
	if s.journal == nil {
		return journal.Stats{}, false
	}
	return s.journal.Stats(), true
}

// Cache exposes the server's result cache (read-mostly: /v1/result,
// stats, tests).
func (s *Server) Cache() *Cache { return s.cache }

// Outcome is what a submission produced: exactly one of Entry (cache
// hit) or Job (new or coalesced computation) is set. Dup marks a
// coalescing within a single batch (two items with one fingerprint)
// rather than onto a previously in-flight job.
type Outcome struct {
	Entry     *Entry
	Job       *Job
	Coalesced bool
	Dup       bool
}

// disposition is the wire "cache" note of the outcome: how it was
// satisfied without a fresh computation ("" when a job was enqueued).
func (o Outcome) disposition() string {
	switch {
	case o.Entry != nil:
		return "hit"
	case o.Dup:
		return "dup"
	case o.Coalesced:
		return "coalesced"
	}
	return ""
}

// newJob builds the queued job every admission path — live submission
// and journal recovery alike — registers under id.
func newJob(id string, req *resolved) *Job {
	return &Job{
		ID:          id,
		Fingerprint: req.fingerprint,
		Mapper:      req.mapper,
		Seed:        req.seed,
		Budgets:     req.budgets,
		req:         req,
		origin:      req.origin,
		status:      JobQueued,
		created:     time.Now(),
		done:        make(chan struct{}),
		events:      newEventLog(),
	}
}

// admit runs one admission decision over the resolved requests (nil
// slots are items the caller already rejected at resolve time): cache
// lookup, then — under s.mu — coalescing onto identical in-flight
// jobs, dedup of identical fingerprints within the call, and a bounded
// enqueue. The decision is atomic: either every request that needs a
// fresh computation fits the queue — and all of them are journaled and
// enqueued — or nothing is admitted and the whole call is rejected with
// ErrOverloaded (ErrDraining likewise rejects it wholesale). Cache hits
// never reject: they are served even while the server drains — they
// cost nothing and can't fail. POST /v1/map is the one-request case.
func (s *Server) admit(reqs []*resolved) ([]Outcome, error) {
	outs := make([]Outcome, len(reqs))
	type pendingItem struct {
		i    int
		req  *resolved
		blob []byte
	}
	var pending []pendingItem
	for i, req := range reqs {
		if req == nil {
			continue
		}
		if e, ok := s.cache.Get(req.fingerprint); ok {
			outs[i] = Outcome{Entry: &e}
			continue
		}
		pending = append(pending, pendingItem{i: i, req: req})
	}

	if s.journal != nil {
		for k := range pending {
			blob, err := encodeJobPayload(pending[k].req)
			if err != nil {
				// The job still runs; it just can't be replayed.
				log.Printf("service: %v", err)
			}
			pending[k].blob = blob
		}
	}

	if len(pending) > 0 {
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			return nil, ErrDraining
		}
		// Plan first: which requests need a genuinely new job once
		// in-flight coalescing and within-call dedup are accounted for?
		created := make(map[string]*Job) // fingerprint → the job this call makes for it
		var fresh []pendingItem          // the requests those jobs were made for, in order
		for _, p := range pending {
			fp := p.req.fingerprint
			// The created map first: a job made for an earlier request of
			// this call must read as a within-call dup, not a coalesce onto
			// pre-existing work.
			if job, ok := created[fp]; ok {
				outs[p.i] = Outcome{Job: job, Coalesced: true, Dup: true}
				continue
			}
			if job, ok := s.flight[fp]; ok {
				outs[p.i] = Outcome{Job: job, Coalesced: true}
				continue
			}
			// An in-flight twin may have reached its terminal state between
			// the unlocked cache check above and this lock. finish publishes
			// to the cache before unregistering, and unregister synchronizes
			// on s.mu, so when the flight index is empty here a re-check
			// cannot miss the twin's result — without it, a submission
			// landing in that window would re-execute a fingerprint that
			// just completed (visible fleet-wide: three peers issuing
			// identical streams hit completion boundaries constantly).
			if e, ok := s.cache.Get(fp); ok {
				outs[p.i] = Outcome{Entry: &e}
				continue
			}
			job := newJob(fmt.Sprintf("job-%06d", s.nextID+len(fresh)+1), p.req)
			created[fp] = job
			fresh = append(fresh, p)
			outs[p.i] = Outcome{Job: job}
		}
		// Capacity is priced in the same critical section as the enqueue,
		// before anything is journaled: a rejected call writes no record,
		// consumes no job ID, and the channel send below never blocks.
		if len(fresh) > cap(s.queue)-len(s.queue) {
			s.mu.Unlock()
			s.met.rejected.Add(int64(len(pending)))
			return nil, ErrOverloaded
		}
		s.nextID += len(fresh)
		for _, p := range fresh {
			job := outs[p.i].Job
			s.jobs[job.ID] = job
			s.flight[job.Fingerprint] = job
			// The Submitted record goes in before the job can be dequeued so
			// a worker's Started record never precedes it in the journal —
			// and the queued event before the enqueue, so no subscriber can
			// see a running event first. Peer-forwarded jobs journal their
			// origin so a post-crash operator can tell replayed fleet
			// traffic from local submissions.
			note := ""
			if p.req.origin != "" {
				note = "origin:" + p.req.origin
			}
			s.jlog(journal.Record{Kind: journal.Submitted, JobID: job.ID, Key: job.Fingerprint, Note: note, Blob: p.blob})
			job.emit(JobQueued)
			s.queue <- job
		}
		s.mu.Unlock()
	}

	for i, req := range reqs {
		if req == nil {
			continue
		}
		s.met.submitted.Inc()
		switch {
		case outs[i].Entry != nil:
			s.met.hits.Inc()
		case outs[i].Coalesced:
			s.met.coalesced.Inc()
		default:
			s.met.misses.Inc()
		}
	}
	return outs, nil
}

// Job returns a previously accepted job by id.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// runJob executes one dequeued job once and publishes its outcome. A
// draining journal-backed server hands still-queued jobs back to the
// journal instead of executing them; a job whose result already sits in
// the cache (recovered duplicates, a twin completed on a shared cache
// dir) resolves without running.
func (s *Server) runJob(job *Job) {
	s.running.Add(1)
	defer s.running.Add(-1)

	if s.journal != nil && s.isDraining() {
		s.finish(job, endRequeued, core.Summary{}, nil)
		return
	}
	if e, ok := s.cache.Get(job.Fingerprint); ok {
		s.finish(job, endCached, e.Summary, nil)
		return
	}

	attempt := job.beginAttempt()
	s.jlog(journal.Record{Kind: journal.Started, JobID: job.ID, Key: job.Fingerprint,
		Attempt: attempt, Note: job.Mapper})
	job.emit(JobRunning)
	sum, err := s.runAttempt(job)
	how := endDone
	if err != nil {
		how = endFailed
	}
	s.finish(job, how, sum, err)
}

// runAttempt executes job, converting a panicking executor into a
// PanicError instead of killing the worker. Nothing here watches the
// clock: the pipeline holds the run to Budgets.Total itself.
func (s *Server) runAttempt(job *Job) (sum core.Summary, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = failure.NewPanic(-1, r, debug.Stack())
		}
	}()
	if ferr := faultinject.Fire(faultinject.SiteServiceRun); ferr != nil {
		return core.Summary{}, fmt.Errorf("service: run %s: %w", job.ID, ferr)
	}
	if owner, ok := s.shouldForward(job); ok {
		// Another peer owns this fingerprint: delegate the execution.
		// An unhandled outcome (owner down, ring disagreement) falls
		// through to local execution — the fleet degrades to
		// standalone behavior, never to an error.
		if fsum, ferr, handled := s.forwardAttempt(s.baseCtx, job, owner); handled {
			return fsum, ferr
		}
	}
	// Count only runs that reach the local executor: a forwarded run is
	// the owner's execution, and counting it here too would make a
	// fleet's summed executed_total read as duplicate work.
	s.met.executed.Inc()
	return s.opts.Run(s.baseCtx, job)
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// ending says how a job reached its terminal status.
type ending int

const (
	endDone      ending = iota // the run returned a clean summary
	endFailed                  // the run failed, or the journal replayed it MaxAttempts times
	endRequeued                // a draining server hands the job back to the journal
	endCached                  // an existing cache entry answers the job; nothing ran
	endRecovered               // the same, found while replaying the journal in New
)

// finish publishes job's terminal status — the one place a job ends:
// the status-specific bookkeeping first, then the terminal journal
// record, the in-flight index, the event stream, the waiters and the
// webhook, in that order. sum is the result (for endFailed, whatever
// partial summary the pipeline salvaged); err is set for endFailed only.
func (s *Server) finish(job *Job, how ending, sum core.Summary, err error) {
	status, kind := JobDone, journal.Completed
	switch how {
	case endFailed:
		status, kind = JobFailed, journal.Failed
	case endRequeued:
		status, kind = JobRequeued, journal.Requeued
	}
	job.mu.Lock()
	job.finished = time.Now()
	job.status = status
	job.err = err
	if status == JobDone || sum.Kernel != "" || len(sum.Stages) > 0 {
		job.summary = &sum // for a failure, the partial result the pipeline salvaged
	}
	attempts := job.attempts
	job.mu.Unlock()

	note := ""
	switch how {
	case endDone:
		s.met.completed.Inc()
		// The cache is published before unregister below: admission relies
		// on that order when it re-checks the cache under s.mu.
		if perr := s.cache.Put(Entry{Fingerprint: job.Fingerprint, Summary: sum}); perr != nil {
			// Persistence is best-effort; the in-memory entry serves.
			log.Printf("service: %v", perr)
		}
		s.rememberFingerprint(job.Fingerprint)
	case endFailed:
		s.met.recordFailure(err)
		note = failure.ClassOf(err)
	case endRequeued:
		s.met.requeued.Inc()
		note = "draining"
	case endCached:
		s.met.completed.Inc()
		note = "resolved from cache"
	case endRecovered:
		note = "resolved from cache on recovery"
	}

	// The terminal record precedes close(job.done): a waiter that saw the
	// job finish can rely on the journal never replaying it.
	s.jlog(journal.Record{Kind: kind, JobID: job.ID, Key: job.Fingerprint, Attempt: attempts, Note: note})
	// Jobs that ended in this process feed the drain estimator and fire
	// their webhook; a requeued job has not ended, and a recovered one
	// ended in a previous process.
	ended := how != endRequeued && how != endRecovered
	if ended {
		s.drain.record()
	}
	s.unregister(job)
	job.emit(status)
	close(job.done)
	if ended {
		s.webhooks.notify(s, job)
	}
}

// unregister drops the job from the in-flight index.
func (s *Server) unregister(job *Job) {
	s.mu.Lock()
	if s.flight[job.Fingerprint] == job {
		delete(s.flight, job.Fingerprint)
	}
	s.mu.Unlock()
}

// runPipeline is the default RunFunc: the real Panorama stack, mapper
// selected by name exactly as in the CLIs.
func (s *Server) runPipeline(ctx context.Context, job *Job) (core.Summary, error) {
	res, err := s.mapJob(ctx, job)
	if res == nil {
		return core.Summary{}, err
	}
	return res.Summarize(), err
}

// mapJob runs the job's mapper over its (possibly shared, read-only)
// graph and architecture and returns the full result, mapping
// included.
func (s *Server) mapJob(ctx context.Context, job *Job) (*core.Result, error) {
	tr := job.startTrace()
	ctx = obs.WithSpan(ctx, tr.Root())
	defer tr.Root().End()

	req := job.req
	cfg := core.Config{
		Seed:           job.Seed,
		RelaxOnFailure: true,
		Workers:        s.opts.PipelineWorkers,
		Budgets:        job.Budgets,
	}
	return core.MapByName(ctx, req.graph, req.arch, job.Mapper, cfg)
}

// Shutdown stops accepting work, lets queued and in-flight jobs drain,
// and — if ctx fires first — cancels the remaining jobs' contexts and
// waits for them to unwind. It returns nil on a clean drain, ctx's
// error otherwise. Safe to call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		s.baseCancel()
		<-done
		err = ctx.Err()
	}
	s.gossipOnce.Do(func() { close(s.gossipStop) })
	s.gossipWG.Wait()
	s.webhooks.close(ctx)
	if s.journal != nil {
		// The workers have unwound (their terminal records are in), so
		// the journal can close; jobs it still holds live replay on the
		// next start.
		if cerr := s.journal.Close(); cerr != nil {
			log.Printf("service: journal close: %v", cerr)
		}
	}
	return err
}
