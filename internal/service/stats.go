package service

import (
	"sync/atomic"
	"time"

	"panorama/internal/core"
	"panorama/internal/failure"
)

// stats is the server's hot-path counter set. Everything is atomic so
// handlers and workers never contend on a lock for bookkeeping.
type stats struct {
	submitted atomic.Int64 // accepted submissions (hit, coalesced or enqueued)
	rejected  atomic.Int64 // 429s from admission control

	hits      atomic.Int64 // served straight from the cache
	misses    atomic.Int64 // required a computation
	coalesced atomic.Int64 // attached to an identical in-flight job

	executed  atomic.Int64 // pipeline executions started
	completed atomic.Int64 // executions that returned a clean Summary

	failedBudget     atomic.Int64
	failedInfeasible atomic.Int64
	failedCancelled  atomic.Int64
	failedOther      atomic.Int64

	retried       atomic.Int64 // attempts re-run by the retry ladder
	degraded      atomic.Int64 // jobs stepped down to a cheaper mapper
	shed          atomic.Int64 // submissions refused by the breaker
	requeued      atomic.Int64 // jobs handed back to the journal on drain
	recovered     atomic.Int64 // jobs replayed from the journal at startup
	journalErrors atomic.Int64 // journal appends that failed

	batchRequests       atomic.Int64 // POST /v1/batch requests that reached admission
	batchRejected       atomic.Int64 // batches rejected wholesale (429/503)
	batchItemsHit       atomic.Int64 // batch items served from the cache
	batchItemsCoalesced atomic.Int64 // batch items attached to an in-flight job
	batchItemsDup       atomic.Int64 // batch items deduped within their batch
	batchItemsEnqueued  atomic.Int64 // batch items that created a job
	batchItemsError     atomic.Int64 // batch items rejected at resolve time

	sseStreams atomic.Int64 // event streams opened (job + batch)
	sseResumed atomic.Int64 // streams opened with a Last-Event-ID cursor
	sseSent    atomic.Int64 // events written to streams
	sseActive  atomic.Int64 // streams currently open (gauge)

	forwarded          atomic.Int64 // attempts concluded on the ring owner
	forwardFallback    atomic.Int64 // forwards that fell back to local execution
	forwardMisdirected atomic.Int64 // forwarded requests this peer answered 421
	originJobs         atomic.Int64 // jobs accepted on behalf of another peer
	gossipFilled       atomic.Int64 // cache entries pulled from peers by gossip

	webhookSent    atomic.Int64 // webhook deliveries acknowledged 2xx
	webhookRetried atomic.Int64 // delivery attempts that will be retried
	webhookFailed  atomic.Int64 // events given up after the retry ladder
	webhookDropped atomic.Int64 // events dropped (full queue, bad payload)

	// Cumulative per-stage wall time of executed jobs, from
	// Result.Provenance (nanoseconds).
	clusteringNS atomic.Int64
	clustermapNS atomic.Int64
	lowerNS      atomic.Int64
}

func (st *stats) recordStages(sum core.Summary) {
	for _, rec := range sum.Stages {
		switch rec.Stage {
		case "clustering":
			st.clusteringNS.Add(int64(rec.Wall))
		case "clustermap":
			st.clustermapNS.Add(int64(rec.Wall))
		case "lower":
			st.lowerNS.Add(int64(rec.Wall))
		}
	}
}

func (st *stats) recordFailure(err error) {
	switch {
	case failure.IsBudget(err):
		st.failedBudget.Add(1)
	case failure.IsCancelled(err):
		st.failedCancelled.Add(1)
	case failure.IsInfeasible(err):
		st.failedInfeasible.Add(1)
	default:
		st.failedOther.Add(1)
	}
}

// Stats is the /statsz wire format: a consistent-enough snapshot of
// the counters plus instantaneous queue and cache gauges.
type Stats struct {
	Submitted int64 `json:"submitted"`
	Rejected  int64 `json:"rejected"`

	CacheHits      int64   `json:"cacheHits"`
	CacheMisses    int64   `json:"cacheMisses"`
	Coalesced      int64   `json:"coalesced"`
	CacheHitRate   float64 `json:"cacheHitRate"` // hits / (hits+misses)
	CacheEntries   int     `json:"cacheEntries"`
	QueueDepth     int     `json:"queueDepth"`
	RunningJobs    int     `json:"runningJobs"`
	Executed       int64   `json:"executed"`
	Completed      int64   `json:"completed"`
	FailedBudget   int64   `json:"failedBudget"`
	FailedInfeasib int64   `json:"failedInfeasible"`
	FailedCancel   int64   `json:"failedCancelled"`
	FailedOther    int64   `json:"failedOther"`

	Retried       int64 `json:"retried"`
	Degraded      int64 `json:"degraded"`
	Shed          int64 `json:"shed"`
	Requeued      int64 `json:"requeued"`
	Recovered     int64 `json:"recovered"`
	JournalErrors int64 `json:"journalAppendErrors"`

	BatchRequests       int64 `json:"batchRequests"`
	BatchRejected       int64 `json:"batchRejected"`
	BatchItemsHit       int64 `json:"batchItemsHit"`
	BatchItemsCoalesced int64 `json:"batchItemsCoalesced"`
	BatchItemsDup       int64 `json:"batchItemsDup"`
	BatchItemsEnqueued  int64 `json:"batchItemsEnqueued"`
	BatchItemsError     int64 `json:"batchItemsError"`

	SSEStreams int64 `json:"sseStreams"`
	SSEResumed int64 `json:"sseResumed"`
	SSESent    int64 `json:"sseEventsSent"`
	SSEActive  int64 `json:"sseActiveStreams"`

	ClusterForwarded   int64 `json:"clusterForwarded"`
	ClusterFallback    int64 `json:"clusterForwardFallback"`
	ClusterMisdirected int64 `json:"clusterMisdirected"`
	ClusterOriginJobs  int64 `json:"clusterOriginJobs"`
	ClusterGossipFill  int64 `json:"clusterGossipFill"`
	// ClusterPeers/ClusterPeersDown mirror the ring membership gauges
	// (zero on standalone servers).
	ClusterPeers     int `json:"clusterPeers"`
	ClusterPeersDown int `json:"clusterPeersDown"`

	WebhooksSent    int64 `json:"webhooksSent"`
	WebhooksRetried int64 `json:"webhooksRetried"`
	WebhooksFailed  int64 `json:"webhooksFailed"`
	WebhooksDropped int64 `json:"webhooksDropped"`

	// BreakerState is "ok", "degrade" or "shed"; BreakerFailureRate is
	// the windowed failure fraction behind it.
	BreakerState       string  `json:"breakerState"`
	BreakerFailureRate float64 `json:"breakerFailureRate"`

	ClusteringMS float64 `json:"stageClusteringMS"`
	ClusterMapMS float64 `json:"stageClusterMapMS"`
	LowerMS      float64 `json:"stageLowerMS"`

	Draining bool `json:"draining"`
}

// Stats snapshots the server's counters and gauges.
func (s *Server) Stats() Stats {
	st := &s.stats
	out := Stats{
		Submitted:           st.submitted.Load(),
		Rejected:            st.rejected.Load(),
		CacheHits:           st.hits.Load(),
		CacheMisses:         st.misses.Load(),
		Coalesced:           st.coalesced.Load(),
		CacheEntries:        s.cache.Len(),
		QueueDepth:          len(s.queue),
		RunningJobs:         int(s.running.Load()),
		Executed:            st.executed.Load(),
		Completed:           st.completed.Load(),
		FailedBudget:        st.failedBudget.Load(),
		FailedInfeasib:      st.failedInfeasible.Load(),
		FailedCancel:        st.failedCancelled.Load(),
		FailedOther:         st.failedOther.Load(),
		Retried:             st.retried.Load(),
		Degraded:            st.degraded.Load(),
		Shed:                st.shed.Load(),
		Requeued:            st.requeued.Load(),
		Recovered:           st.recovered.Load(),
		JournalErrors:       st.journalErrors.Load(),
		BatchRequests:       st.batchRequests.Load(),
		BatchRejected:       st.batchRejected.Load(),
		BatchItemsHit:       st.batchItemsHit.Load(),
		BatchItemsCoalesced: st.batchItemsCoalesced.Load(),
		BatchItemsDup:       st.batchItemsDup.Load(),
		BatchItemsEnqueued:  st.batchItemsEnqueued.Load(),
		BatchItemsError:     st.batchItemsError.Load(),
		SSEStreams:          st.sseStreams.Load(),
		SSEResumed:          st.sseResumed.Load(),
		SSESent:             st.sseSent.Load(),
		SSEActive:           st.sseActive.Load(),
		ClusterForwarded:    st.forwarded.Load(),
		ClusterFallback:     st.forwardFallback.Load(),
		ClusterMisdirected:  st.forwardMisdirected.Load(),
		ClusterOriginJobs:   st.originJobs.Load(),
		ClusterGossipFill:   st.gossipFilled.Load(),
		WebhooksSent:        st.webhookSent.Load(),
		WebhooksRetried:     st.webhookRetried.Load(),
		WebhooksFailed:      st.webhookFailed.Load(),
		WebhooksDropped:     st.webhookDropped.Load(),
		BreakerState:        s.breaker.state().String(),
		BreakerFailureRate:  s.breaker.failureRate(),
		ClusteringMS:        float64(st.clusteringNS.Load()) / float64(time.Millisecond),
		ClusterMapMS:        float64(st.clustermapNS.Load()) / float64(time.Millisecond),
		LowerMS:             float64(st.lowerNS.Load()) / float64(time.Millisecond),
	}
	if n := out.CacheHits + out.CacheMisses; n > 0 {
		out.CacheHitRate = float64(out.CacheHits) / float64(n)
	}
	if cl := s.opts.Cluster; cl != nil {
		cs := cl.Stats()
		out.ClusterPeers = len(cs.Peers)
		out.ClusterPeersDown = cs.PeersDown
	}
	out.Draining = s.isDraining()
	return out
}
