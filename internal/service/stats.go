package service

import (
	"io"
	"sync/atomic"

	"panorama/internal/failure"
	"panorama/internal/obs"
)

// metrics is the server's instrument set, registered once on the
// server's own obs.Registry (newMetrics): /metricsz serialises that
// registry and Stats() reads the same instruments. Counting is one
// atomic add, so handlers and workers never contend on a lock for
// bookkeeping; labelled children are resolved at construction, so their
// zero-valued series are in the exposition from the first scrape.
type metrics struct {
	submitted *obs.Counter // accepted submissions (hit, coalesced or enqueued)
	rejected  *obs.Counter // 429s from admission control

	hits      *obs.Counter // served straight from the cache
	misses    *obs.Counter // required a computation
	coalesced *obs.Counter // attached to an identical in-flight job

	executed  *obs.Counter // pipeline executions started
	completed *obs.Counter // executions that returned a clean Summary

	// failed counts failed executions by failure class; a class without
	// a series of its own counts as "other".
	failed map[string]*obs.Counter

	retried       *obs.Counter // attempts re-run by the retry ladder
	requeued      *obs.Counter // jobs handed back to the journal on drain
	recovered     *obs.Counter // jobs replayed from the journal at startup
	journalErrors *obs.Counter // journal appends that failed

	batchRequests       *obs.Counter // POST /v1/batch requests that reached admission
	batchRejected       *obs.Counter // batches rejected wholesale (429/503)
	batchItemsHit       *obs.Counter // batch items served from the cache
	batchItemsCoalesced *obs.Counter // batch items attached to an in-flight job
	batchItemsDup       *obs.Counter // batch items deduped within their batch
	batchItemsEnqueued  *obs.Counter // batch items that created a job
	batchItemsError     *obs.Counter // batch items rejected at resolve time

	sseStreams *obs.Counter // event streams opened (job + batch)
	sseResumed *obs.Counter // streams opened with a Last-Event-ID cursor
	sseSent    *obs.Counter // events written to streams
	sseActive  atomic.Int64 // streams currently open (gauge)

	forwarded          *obs.Counter // attempts concluded on the ring owner
	forwardFallback    *obs.Counter // forwards that fell back to local execution
	forwardMisdirected *obs.Counter // forwarded requests this peer answered 421
	originJobs         *obs.Counter // jobs accepted on behalf of another peer
	gossipFilled       *obs.Counter // cache entries pulled from peers by gossip

	webhookSent    *obs.Counter // webhook deliveries acknowledged 2xx
	webhookRetried *obs.Counter // delivery attempts that will be retried
	webhookFailed  *obs.Counter // events given up after the retry ladder
	webhookDropped *obs.Counter // events dropped (full queue, bad payload)

	// End-to-end POST /v1/map latency by how the request was satisfied
	// (a wait=true request includes the wait).
	reqHit       *obs.Histogram
	reqCoalesced *obs.Histogram
	reqExecuted  *obs.Histogram
	reqRejected  *obs.Histogram
}

// requestBuckets are the panorama_request_seconds bounds: a cache hit is
// tens of microseconds, an executed job up to its budget, so the default
// obs.TimeBuckets (1 ms and up) would put every hit in one bucket.
var requestBuckets = []float64{.00005, .0001, .00025, .0005, .001, .005, .025, .1, .5, 2.5, 10, 60, 300}

// newMetrics registers every service family on s.reg — the one place a
// family's name, help string and instrument meet. The gauges sample s
// at scrape time, so the registry describes this server only;
// process-wide families (pipeline, solvers, journal) live on
// obs.Default.
func newMetrics(s *Server) *metrics {
	reg := s.reg
	batchItems := reg.NewCounterVec("panorama_batch_items_total", "Batch items by admission disposition.", "disposition")
	failed := reg.NewCounterVec("panorama_service_failed_total", "Executions that returned an error, by failure class.", "class")
	request := reg.NewHistogramVec("panorama_request_seconds", "POST /v1/map latency from decode to response, by disposition (a wait=true request includes the wait).", requestBuckets, "disposition")
	m := &metrics{
		batchItemsCoalesced: batchItems.With("coalesced"),
		batchItemsDup:       batchItems.With("dup"),
		batchItemsEnqueued:  batchItems.With("enqueued"),
		batchItemsError:     batchItems.With("error"),
		batchItemsHit:       batchItems.With("hit"),
		batchRejected:       reg.NewCounter("panorama_batch_rejected_total", "Batch requests rejected wholesale by admission control."),
		batchRequests:       reg.NewCounter("panorama_batch_requests_total", "Batch requests that reached admission."),
		forwardFallback:     reg.NewCounter("panorama_cluster_forward_fallback_total", "Forwards that fell back to local execution (owner down or misdirected)."),
		forwarded:           reg.NewCounter("panorama_cluster_forwarded_total", "Job attempts concluded on the ring owner peer."),
		gossipFilled:        reg.NewCounter("panorama_cluster_gossip_fill_total", "Cache entries pulled from peers by the gossip loop."),
		forwardMisdirected:  reg.NewCounter("panorama_cluster_misdirected_total", "Forwarded requests this peer rejected with 421 (ring disagreement)."),
		originJobs:          reg.NewCounter("panorama_cluster_origin_jobs_total", "Jobs accepted on behalf of a forwarding peer."),
		reqCoalesced:        request.With("coalesced"),
		reqExecuted:         request.With("executed"),
		reqHit:              request.With("hit"),
		reqRejected:         request.With("rejected"),
		hits:                reg.NewCounter("panorama_service_cache_hits_total", "Submissions served straight from the result cache."),
		misses:              reg.NewCounter("panorama_service_cache_misses_total", "Submissions that required a computation."),
		coalesced:           reg.NewCounter("panorama_service_coalesced_total", "Submissions attached to an identical in-flight job."),
		completed:           reg.NewCounter("panorama_service_completed_total", "Executions that returned a clean summary."),
		executed:            reg.NewCounter("panorama_service_executed_total", "Pipeline executions started."),
		failed:              map[string]*obs.Counter{failure.ClassBudget: failed.With("budget"), failure.ClassCancelled: failed.With("cancelled"), failure.ClassInfeasible: failed.With("infeasible"), "other": failed.With("other")},
		journalErrors:       reg.NewCounter("panorama_service_journal_append_errors_total", "Job lifecycle records the service failed to journal."),
		recovered:           reg.NewCounter("panorama_service_recovered_total", "Jobs replayed from the journal at startup."),
		rejected:            reg.NewCounter("panorama_service_rejected_total", "Submissions rejected by admission control (429)."),
		requeued:            reg.NewCounter("panorama_service_requeued_total", "Jobs a draining server handed back to the journal."),
		retried:             reg.NewCounter("panorama_service_retried_total", "Failed attempts re-run by the retry ladder."),
		submitted:           reg.NewCounter("panorama_service_submitted_total", "Accepted submissions (cache hit, coalesced or enqueued)."),
		sseSent:             reg.NewCounter("panorama_sse_events_sent_total", "Events written to SSE streams."),
		sseResumed:          reg.NewCounter("panorama_sse_resumed_total", "SSE streams opened with a Last-Event-ID resume cursor."),
		sseStreams:          reg.NewCounter("panorama_sse_streams_total", "SSE streams opened (job and batch)."),
		webhookDropped:      reg.NewCounter("panorama_webhook_dropped_total", "Webhook events dropped (full queue or unmarshalable payload)."),
		webhookFailed:       reg.NewCounter("panorama_webhook_failed_total", "Webhook events abandoned after the retry ladder."),
		webhookRetried:      reg.NewCounter("panorama_webhook_retried_total", "Webhook delivery attempts that will be retried."),
		webhookSent:         reg.NewCounter("panorama_webhook_sent_total", "Webhook deliveries acknowledged with a 2xx."),
	}
	gauge := func(name, help string, fn func() int) {
		reg.GaugeFunc(name, help, func() float64 { return float64(fn()) })
	}
	gauge("panorama_cluster_peers", "Peers on the hash ring, self included (0 standalone).", func() int { return len(s.opts.Cluster.Stats().Peers) })
	gauge("panorama_cluster_peers_down", "Remote peers currently considered unreachable.", func() int { return s.opts.Cluster.Stats().PeersDown })
	gauge("panorama_service_cache_entries", "Entries in the result cache.", s.cache.Len)
	gauge("panorama_service_draining", "1 while the server is draining for shutdown, else 0.", func() int {
		if s.isDraining() {
			return 1
		}
		return 0
	})
	gauge("panorama_service_queue_depth", "Jobs waiting behind the running ones.", func() int { return len(s.queue) })
	gauge("panorama_service_running_jobs", "Jobs currently executing.", func() int { return int(s.running.Load()) })
	gauge("panorama_sse_active_streams", "Event streams currently open.", func() int { return int(m.sseActive.Load()) })
	return m
}

// WriteMetrics renders this server's families and then the
// process-wide ones from obs.Default as Prometheus text (exposition
// format 0.0.4). It is the body of GET /metricsz and of the final
// snapshot panoramad logs on shutdown.
func (s *Server) WriteMetrics(w io.Writer) error {
	if err := s.reg.WriteProm(w); err != nil {
		return err
	}
	return obs.Default.WriteProm(w)
}

func (m *metrics) recordFailure(err error) {
	c, ok := m.failed[failure.ClassOf(err)]
	if !ok {
		c = m.failed["other"]
	}
	c.Inc()
}

// Stats is the typed in-process snapshot of the server's instruments:
// the counters plus the instantaneous queue, cache and drain gauges.
// Scrapers read the same numbers off /metricsz.
type Stats struct {
	Submitted int64
	Rejected  int64

	CacheHits      int64
	CacheMisses    int64
	Coalesced      int64
	CacheHitRate   float64 // hits / (hits+misses)
	CacheEntries   int
	QueueDepth     int
	RunningJobs    int
	Executed       int64
	Completed      int64
	FailedBudget   int64
	FailedInfeasib int64
	FailedCancel   int64
	FailedOther    int64

	Retried       int64
	Requeued      int64
	Recovered     int64
	JournalErrors int64

	BatchRequests       int64
	BatchRejected       int64
	BatchItemsHit       int64
	BatchItemsCoalesced int64
	BatchItemsDup       int64
	BatchItemsEnqueued  int64
	BatchItemsError     int64

	SSEStreams int64
	SSEResumed int64
	SSESent    int64
	SSEActive  int64

	ClusterForwarded   int64
	ClusterFallback    int64
	ClusterMisdirected int64
	ClusterOriginJobs  int64
	ClusterGossipFill  int64
	// ClusterPeers/ClusterPeersDown mirror the ring membership gauges
	// (zero on standalone servers).
	ClusterPeers     int
	ClusterPeersDown int

	WebhooksSent    int64
	WebhooksRetried int64
	WebhooksFailed  int64
	WebhooksDropped int64

	Draining bool
}

// Stats snapshots the server's counters and gauges.
func (s *Server) Stats() Stats {
	st := s.met
	cs := s.opts.Cluster.Stats() // zero on a standalone server
	out := Stats{
		Submitted:           st.submitted.Value(),
		Rejected:            st.rejected.Value(),
		CacheHits:           st.hits.Value(),
		CacheMisses:         st.misses.Value(),
		Coalesced:           st.coalesced.Value(),
		CacheEntries:        s.cache.Len(),
		QueueDepth:          len(s.queue),
		RunningJobs:         int(s.running.Load()),
		Executed:            st.executed.Value(),
		Completed:           st.completed.Value(),
		FailedBudget:        st.failed[failure.ClassBudget].Value(),
		FailedInfeasib:      st.failed[failure.ClassInfeasible].Value(),
		FailedCancel:        st.failed[failure.ClassCancelled].Value(),
		FailedOther:         st.failed["other"].Value(),
		Retried:             st.retried.Value(),
		Requeued:            st.requeued.Value(),
		Recovered:           st.recovered.Value(),
		JournalErrors:       st.journalErrors.Value(),
		BatchRequests:       st.batchRequests.Value(),
		BatchRejected:       st.batchRejected.Value(),
		BatchItemsHit:       st.batchItemsHit.Value(),
		BatchItemsCoalesced: st.batchItemsCoalesced.Value(),
		BatchItemsDup:       st.batchItemsDup.Value(),
		BatchItemsEnqueued:  st.batchItemsEnqueued.Value(),
		BatchItemsError:     st.batchItemsError.Value(),
		SSEStreams:          st.sseStreams.Value(),
		SSEResumed:          st.sseResumed.Value(),
		SSESent:             st.sseSent.Value(),
		SSEActive:           st.sseActive.Load(),
		ClusterForwarded:    st.forwarded.Value(),
		ClusterFallback:     st.forwardFallback.Value(),
		ClusterMisdirected:  st.forwardMisdirected.Value(),
		ClusterOriginJobs:   st.originJobs.Value(),
		ClusterGossipFill:   st.gossipFilled.Value(),
		ClusterPeers:        len(cs.Peers),
		ClusterPeersDown:    cs.PeersDown,
		WebhooksSent:        st.webhookSent.Value(),
		WebhooksRetried:     st.webhookRetried.Value(),
		WebhooksFailed:      st.webhookFailed.Value(),
		WebhooksDropped:     st.webhookDropped.Value(),
		Draining:            s.isDraining(),
	}
	if n := out.CacheHits + out.CacheMisses; n > 0 {
		out.CacheHitRate = float64(out.CacheHits) / float64(n)
	}
	return out
}
