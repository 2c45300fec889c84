// Command panoramad serves the Panorama mapper as a long-running
// HTTP/JSON daemon: mapping jobs are queued with admission control,
// coalesced when identical, executed on a bounded worker set under an
// abort-only deadline, and served from a content-addressed result cache
// (optionally persisted across restarts with -cache-dir).
//
// With -journal-dir the daemon is crash-safe: every accepted job is
// recorded in a write-ahead journal, and on startup unfinished jobs
// are replayed and re-enqueued (completed ones resolve from the result
// cache, so nothing runs twice). Every job runs the mapper its request
// names. A job runs at most once per process: a failure is its answer,
// over-budget jobs fail with 504, and a job the journal has started
// three times fails on restart instead of running again.
// Admission refuses new work only when the queue is full (429) or the
// daemon is draining (503).
//
// Usage:
//
//	panoramad -addr :8080 -cache-dir /var/cache/panorama -journal-dir /var/lib/panorama/journal -queue 64 -timeout 2m
//
// Endpoints:
//
//	POST /v1/map         submit a job ({"kernel":"fir","arch":"8x8",...});
//	                     "wait":true blocks for the outcome
//	GET  /v1/jobs/{id}   job status/result (?wait=1 blocks)
//	GET  /v1/result/{fp} cached result by fingerprint
//	GET  /v1/trace/{id}  the job's span tree (JSON)
//	GET  /healthz        liveness; GET /metricsz Prometheus metrics
//	                     (this daemon's families, then the process-wide ones)
//
// With -peers (and -self naming this node's own URL in that list) the
// daemon joins a static fleet: a consistent-hash ring shards mapping
// fingerprints across the peers, non-owners forward work to its owner
// for as long as the job's budget allows (falling back to local
// execution when the owner is down; a down owner is probed 10 s after
// it went down, and gets jobs again once a probe succeeds), and
// -gossip enables periodic peer health probes plus opportunistic
// cache fill from peers' recent completions. GET /v1/cluster/statsz serves this node's ring view. -webhook-url (optionally signed with
// -webhook-secret) fires a POST per terminal job. See DEPLOYMENT.md
// for fleet topologies and sizing.
//
// SIGINT/SIGTERM starts a graceful shutdown: queued and in-flight jobs
// drain within -drain while the endpoints stay up (so a final scrape
// of /metricsz sees the completed counters), then the listeners close,
// a last metrics snapshot is logged, and the process exits.
//
// -pprof-addr starts a second listener serving net/http/pprof (kept
// off the public mux so profiling is never exposed by accident).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"panorama/internal/cluster"
	"panorama/internal/core"
	"panorama/internal/service"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		cacheDir   = flag.String("cache-dir", "", "persist the result cache here (empty = memory only)")
		cacheSize  = flag.Int("cache-size", service.DefaultCacheSize, "in-memory cache entries")
		workers    = flag.Int("workers", 1, "jobs mapped concurrently")
		queue      = flag.Int("queue", 16, "job queue depth; a full queue answers 429")
		pipelineJ  = flag.Int("j", 0, "worker-pool width inside each pipeline (0 = one per CPU, 1 = serial)")
		timeout    = flag.Duration("timeout", 5*time.Minute, "per-job wall-clock budget (requests may lower it via timeoutMS, never raise it); 0 = unbounded")
		drain      = flag.Duration("drain", 0, "graceful-shutdown drain budget; 0 = the per-job -timeout")
		pprofAddr  = flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty = disabled)")
		journalDir = flag.String("journal-dir", "", "crash-safe job journal directory: accepted jobs survive a crash and re-run on restart (empty = no durability)")
		peersFlag  = flag.String("peers", "", "comma-separated fleet peer base URLs (empty = standalone)")
		selfURL    = flag.String("self", "", "this node's own base URL as it appears in -peers (required with -peers)")
		gossip     = flag.Duration("gossip", 0, "peer health-probe and cache-fill interval (0 = no gossip; forwarding still works)")
		webhookURL = flag.String("webhook-url", "", "POST a signed notification here for every terminal job (empty = disabled)")
		webhookKey = flag.String("webhook-secret", "", "HMAC-SHA256 key for webhook body signatures (empty = unsigned)")
	)
	flag.Parse()

	var cl *cluster.Cluster
	if *peersFlag != "" {
		if *selfURL == "" {
			log.Fatalf("panoramad: -peers requires -self (this node's URL in the peer list)")
		}
		cl = cluster.New(cluster.Config{Self: *selfURL, Peers: strings.Split(*peersFlag, ",")})
	}

	srv, err := service.New(service.Options{
		Workers:         *workers,
		QueueSize:       *queue,
		PipelineWorkers: *pipelineJ,
		CacheSize:       *cacheSize,
		CacheDir:        *cacheDir,
		Budgets:         core.Budgets{Total: *timeout},
		JournalDir:      *journalDir,
		Cluster:         cl,
		GossipInterval:  *gossip,
		WebhookURL:      *webhookURL,
		WebhookSecret:   *webhookKey,
	})
	if err != nil {
		log.Fatalf("panoramad: %v", err)
	}
	if cl != nil {
		cs := cl.Stats()
		log.Printf("panoramad: fleet of %d peer(s), self %s, gossip %v", len(cs.Peers), cs.Self, *gossip)
	}
	if *cacheDir != "" {
		log.Printf("panoramad: cache dir %s (%d entries loaded, %d skipped)", *cacheDir, srv.Cache().Len(), srv.Cache().LoadSkipped())
	}
	if js, ok := srv.JournalStats(); ok {
		log.Printf("panoramad: journal %s: %d record(s) replayed from %d segment(s), %d torn byte(s) dropped, %d compaction(s)",
			*journalDir, js.Replayed, js.Segments, js.DroppedBytes, js.Compactions)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Printf("panoramad: listening on %s (workers=%d queue=%d timeout=%v)", *addr, *workers, *queue, *timeout)

	if *pprofAddr != "" {
		// pprof lives on its own listener, never on the service mux.
		pm := http.NewServeMux()
		pm.HandleFunc("/debug/pprof/", pprof.Index)
		pm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Printf("panoramad: pprof on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, pm); err != nil {
				log.Printf("panoramad: pprof: %v", err)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		log.Fatalf("panoramad: %v", err)
	case s := <-sig:
		log.Printf("panoramad: %v — draining", s)
	}

	// Drain the job queue first, with the endpoints still up: the final
	// stats of in-flight jobs land in the counters while /metricsz can
	// still be scraped, so a terminating pod's last scrape is complete
	// instead of losing everything that finished during the drain. New
	// submissions are already refused (503) the moment the service
	// starts draining. Only then close the listeners, and log a last
	// metrics snapshot for operators with no scraper attached.
	drainBudget := *drain
	if drainBudget <= 0 {
		drainBudget = *timeout
	}
	if drainBudget <= 0 {
		drainBudget = time.Minute
	}
	ctx, cancel := context.WithTimeout(context.Background(), drainBudget)
	defer cancel()
	drainErr := srv.Shutdown(ctx)
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("panoramad: http shutdown: %v", err)
	}
	logFinalMetrics(srv)
	if drainErr != nil {
		fmt.Fprintf(os.Stderr, "panoramad: drain incomplete: %v\n", drainErr)
		os.Exit(1)
	}
	log.Printf("panoramad: drained cleanly")
}

// logFinalMetrics writes the complete metrics snapshot to the log so
// the last state of a terminated daemon survives even without a
// scraper.
func logFinalMetrics(srv *service.Server) {
	var sb strings.Builder
	if err := srv.WriteMetrics(&sb); err != nil {
		log.Printf("panoramad: final metrics: %v", err)
		return
	}
	log.Printf("panoramad: final metrics snapshot:\n%s", sb.String())
}
