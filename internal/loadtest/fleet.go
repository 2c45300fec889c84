package loadtest

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"panorama/internal/cluster"
	"panorama/internal/obs"
	"panorama/internal/service"
)

// FleetConfig shapes an in-process fleet of panoramad peers sharing
// one consistent-hash ring.
type FleetConfig struct {
	// N is the peer count (>= 2; a one-node "fleet" is just a Harness).
	N int
	// Options builds peer i's service options. The fleet installs its
	// own cluster.Cluster into each; everything else (workers, queue,
	// Run stubs, gossip) is the caller's. Nil uses zero options (the
	// real pipeline at default sizing).
	Options func(i int) service.Options
}

// Fleet is N in-process panoramad peers wired into one ring: each
// Harness owns a real service.Server and listener, each server owns a
// cluster.Cluster, and after every listener is up the fleet binds all
// base URLs into every ring so the peers agree on fingerprint
// ownership. Per-peer execution/completion accounting (via the
// Harness's wrapped executor) makes fleet-wide exactly-once assertable:
// forwarded attempts bypass the origin's executor, so summing the
// maps across peers counts real pipeline runs only.
type Fleet struct {
	Peers []*Harness
	Rings []*cluster.Cluster
	urls  []string
}

// NewFleet starts the peers and wires the ring. On any start failure
// the peers already up are shut down before the error returns.
func NewFleet(cfg FleetConfig) (*Fleet, error) {
	if cfg.N < 2 {
		return nil, errors.New("loadtest: a fleet needs at least 2 peers")
	}
	f := &Fleet{}
	for i := 0; i < cfg.N; i++ {
		var opts service.Options
		if cfg.Options != nil {
			opts = cfg.Options(i)
		}
		cl := cluster.New(cluster.Config{})
		opts.Cluster = cl
		h, err := NewHarness(opts)
		if err != nil {
			f.Close(context.Background())
			return nil, err
		}
		f.Peers = append(f.Peers, h)
		f.Rings = append(f.Rings, cl)
		f.urls = append(f.urls, h.URL())
	}
	// Listen addresses exist only now; bind the full membership into
	// every peer's ring. From here each server shards by fingerprint.
	for i, cl := range f.Rings {
		cl.Configure(f.urls[i], f.urls)
	}
	return f, nil
}

// URLs lists the peers' base URLs in peer order.
func (f *Fleet) URLs() []string {
	out := make([]string, len(f.urls))
	copy(out, f.urls)
	return out
}

// OwnerIndex resolves which peer owns fingerprint fp under the shared
// ring (-1 if the ring is inert or the owner is unknown).
func (f *Fleet) OwnerIndex(fp string) int {
	if len(f.Rings) == 0 {
		return -1
	}
	owner := f.Rings[0].Owner(fp)
	for i, u := range f.urls {
		if u == owner {
			return i
		}
	}
	return -1
}

// Executions merges the per-peer execution counts: how many times
// each fingerprint's pipeline actually ran, fleet-wide.
func (f *Fleet) Executions() map[string]int {
	return f.merge((*Harness).Executions)
}

// Completions merges the per-peer successful-run counts.
func (f *Fleet) Completions() map[string]int {
	return f.merge((*Harness).Completions)
}

func (f *Fleet) merge(get func(*Harness) map[string]int) map[string]int {
	out := map[string]int{}
	for _, h := range f.Peers {
		if h == nil {
			continue
		}
		for fp, n := range get(h) {
			out[fp] += n
		}
	}
	return out
}

// Close drains every peer still up and returns the first error.
func (f *Fleet) Close(ctx context.Context) error {
	var first error
	for _, h := range f.Peers {
		if h == nil {
			continue
		}
		if err := h.Close(ctx); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// FleetCounts are the counters the fleet SLOs are judged on, summed
// over every peer: pipeline executions, forwards concluded on a ring
// owner, forwards that fell back to local execution, and forwarded
// requests a peer refused as misdirected.
type FleetCounts struct {
	Executed, Forwarded, Fallback, Misdirected int64
}

// ScrapeFleet reads every peer's /metricsz and sums the FleetCounts
// series — the fleet's own account of a run, as `panoramaload -fleet`
// and any external scraper see it. A peer whose body lacks one of the
// series is an error, not a zero.
func ScrapeFleet(ctx context.Context, urls []string) (FleetCounts, error) {
	var c FleetCounts
	for _, u := range urls {
		series, err := scrapeMetricsz(ctx, u)
		if err != nil {
			return c, fmt.Errorf("%s/metricsz: %w", u, err)
		}
		for name, sum := range map[string]*int64{
			"panorama_service_executed_total":         &c.Executed,
			"panorama_cluster_forwarded_total":        &c.Forwarded,
			"panorama_cluster_forward_fallback_total": &c.Fallback,
			"panorama_cluster_misdirected_total":      &c.Misdirected,
		} {
			v, ok := series[name]
			if !ok {
				return c, fmt.Errorf("%s/metricsz: no %s series", u, name)
			}
			*sum += int64(v)
		}
	}
	return c, nil
}

// scrapeMetricsz fetches one peer's /metricsz as a series → value map
// (obs.Registry.Snapshot's keys).
func scrapeMetricsz(ctx context.Context, base string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metricsz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	return obs.ParseProm(resp.Body)
}
