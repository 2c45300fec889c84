package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"panorama/internal/loadtest"
	"panorama/internal/obs"
	"panorama/internal/service"
)

// svcEnv is a running in-process panoramad behind a loopback
// listener, with its warm pool prefilled.
type svcEnv struct {
	h      *loadtest.Harness
	opts   service.Options
	client *http.Client
}

// svcOptions is the server under test: one mapping worker, serial
// pipelines, and cache and journal on the real filesystem with the
// per-record fsync on.
func svcOptions(dir string) service.Options {
	return service.Options{
		Workers:         1,
		PipelineWorkers: 1,
		QueueSize:       64,
		CacheDir:        filepath.Join(dir, "cache"),
		JournalDir:      filepath.Join(dir, "journal"),
	}
}

// svcAnswer is what the client saw for one op.
type svcAnswer struct {
	Lat    time.Duration
	OK     bool // 200, done, a successful mapping, and the expected cache disposition
	Why    string
	Mapper string
	MII    int
	II     int
}

// jobView is the part of the POST /v1/map response the client reads.
type jobView struct {
	Mapper string `json:"mapper"`
	Status string `json:"status"`
	Cache  string `json:"cache"`
	Result *struct {
		Success bool `json:"success"`
		MII     int  `json:"mii"`
		II      int  `json:"ii"`
	} `json:"result"`
}

// post issues one op and classifies the response. Latency is what
// the client observed: request written to body fully read.
func (e *svcEnv) post(ctx context.Context, op svcOp, wantCache string) svcAnswer {
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, e.h.URL()+"/v1/map", bytes.NewReader(op.Body))
	if err != nil {
		return svcAnswer{Why: err.Error()}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := e.client.Do(req)
	if err != nil {
		return svcAnswer{Lat: time.Since(t0), Why: err.Error()}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	ans := svcAnswer{Lat: time.Since(t0)}
	if err != nil {
		ans.Why = err.Error()
		return ans
	}
	var v jobView
	switch {
	case resp.StatusCode != http.StatusOK:
		ans.Why = fmt.Sprintf("HTTP %d: %.120s", resp.StatusCode, body)
	case json.Unmarshal(body, &v) != nil:
		ans.Why = fmt.Sprintf("undecodable response: %.120s", body)
	case v.Status != string(service.JobDone) || v.Result == nil || !v.Result.Success:
		ans.Why = fmt.Sprintf("job not done: %.120s", body)
	case v.Cache != wantCache:
		ans.Why = fmt.Sprintf("cache disposition %q, want %q", v.Cache, wantCache)
	default:
		ans.OK, ans.Mapper, ans.MII, ans.II = true, v.Mapper, v.Result.MII, v.Result.II
	}
	return ans
}

// setupSvc does everything before the first timed op: start the
// server on fresh directories under dir (which must not exist yet),
// prefill the warm pool over HTTP, and run one warm-up pass a tenth
// the size of a timed one.
func setupSvc(ctx context.Context, dir string, seed int64, passOps int) (*svcEnv, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	e := &svcEnv{opts: svcOptions(dir)}
	h, err := loadtest.NewHarness(e.opts)
	if err != nil {
		return nil, err
	}
	e.h = h
	e.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: svcClients}}
	for _, op := range warmPool() {
		if ans := e.post(ctx, op, ""); !ans.OK {
			e.close(ctx)
			return nil, fmt.Errorf("prefill %s seed %d: %s", op.Spec.Kernel, op.Spec.Seed, ans.Why)
		}
	}
	warm := e.runPass(ctx, svcOps(seed, -1, passOps/10), nil, 0)
	for i, ans := range warm.Answers {
		if !ans.OK {
			e.close(ctx)
			return nil, fmt.Errorf("warm-up op %d: %s", i, ans.Why)
		}
	}
	return e, nil
}

// close drains the server, closes the listener and the client's idle
// connections; the directories stay for the caller to delete.
func (e *svcEnv) close(ctx context.Context) error {
	err := e.h.Close(ctx)
	e.client.CloseIdleConnections()
	return err
}

// removeSettled deletes a server's directories and then syncs the
// directory that held them, which commits the filesystem journal the
// unlinks went into. A run leaves thousands of cache files behind, and
// without this the next fsyncs — the next set-up's, or the next run's —
// pay for that journal work: back-to-back runs read 15-30% slower than
// a lone one. Where a directory cannot be synced the error is ignored.
func removeSettled(dir string) error {
	err := os.RemoveAll(dir)
	if parent, perr := os.Open(filepath.Dir(dir)); perr == nil {
		parent.Sync()
		parent.Close()
	}
	return err
}

// svcPass is one pass over an op list.
type svcPass struct {
	Wall    time.Duration
	Ops     []svcOp
	Answers []svcAnswer
	Stats   svcCounts
	Counts  map[string]float64 // obs counter deltas
}

// svcCounts are the server's own counters over one pass.
type svcCounts struct {
	Executed, Hits, Coalesced, Rejected, Retried int64
}

func svcCountsOf(s service.Stats) svcCounts {
	return svcCounts{s.Executed, s.CacheHits, s.Coalesced, s.Rejected, s.Retried}
}

func (a svcCounts) minus(b svcCounts) svcCounts {
	return svcCounts{a.Executed - b.Executed, a.Hits - b.Hits, a.Coalesced - b.Coalesced,
		a.Rejected - b.Rejected, a.Retried - b.Retried}
}

// runPass drives ops closed-loop from svcClients clients: each takes
// the next unissued op once its previous one has been answered.
func (e *svcEnv) runPass(ctx context.Context, ops []svcOp, rec *recorder, opBase int) svcPass {
	p := svcPass{Ops: ops, Answers: make([]svcAnswer, len(ops))}
	before, obsBefore := svcCountsOf(e.h.Srv.Stats()), obs.Default.Snapshot()
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < svcClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				want, name := "hit", "client.hit"
				if ops[i].Cold {
					want, name = "", "client.cold"
				}
				id := rec.start(-1, opBase+i, name)
				p.Answers[i] = e.post(ctx, ops[i], want)
				rec.end(id)
			}
		}()
	}
	wg.Wait()
	p.Wall = time.Since(t0)
	p.Stats = svcCountsOf(e.h.Srv.Stats()).minus(before)
	p.Counts = countDelta(obsBefore, obs.Default.Snapshot())
	// Size-triggered compactions fall where the segment fills, not at
	// pass boundaries, so their per-pass count legitimately varies.
	delete(p.Counts, "panorama_journal_compactions_total")
	return p
}

func (p svcPass) cold() int {
	n := 0
	for _, op := range p.Ops {
		if op.Cold {
			n++
		}
	}
	return n
}

func (p svcPass) qom() qomTally {
	q := qomTally{}
	for _, a := range p.Answers {
		if a.OK {
			q.add(a.MII, a.II)
		}
	}
	return q
}

// signature is what must be identical from pass to pass.
func (p svcPass) signature() string {
	return fmt.Sprintf("%+v qom=%v | %s", p.Stats, p.qom().geomean(), signature(p.Counts))
}

// coldCheckEvery is how many cold responses share one direct check.
const coldCheckEvery = 50

// verifySvc is the correctness gate, run after timing: every warm
// response and one cold response in coldCheckEvery is compared (II,
// MII, mapper) against a direct in-process run of the same spec, and
// the server must have executed each cold op exactly once. It marks
// wrong answers not OK and returns the number of failed ops.
func verifySvc(ctx context.Context, passes []svcPass, rep *report) int {
	type key struct {
		kernel, mapper string
		seed           int64
	}
	type iis struct{ mii, ii int }
	direct := map[key]iis{}
	expect := func(s svcSpecReq) (iis, error) {
		k := key{s.Kernel, s.Mapper, s.Seed}
		if v, ok := direct[k]; ok {
			return v, nil
		}
		g, err := buildKernel(s.Kernel, s.Scale)
		if err != nil {
			return iis{}, err
		}
		a, err := archPreset(s.Arch)
		if err != nil {
			return iis{}, err
		}
		res, err := mapOnce(ctx, g, a, s.Mapper, s.Seed)
		if err != nil {
			return iis{}, err
		}
		direct[k] = iis{res.Lower.MII, res.Lower.II}
		return direct[k], nil
	}
	failed := 0
	var first string
	for pi := range passes {
		p := &passes[pi]
		coldSeen := 0
		for i := range p.Answers {
			ans, op := &p.Answers[i], p.Ops[i]
			check := ans.OK
			if op.Cold {
				check = check && coldSeen%coldCheckEvery == 0
				coldSeen++
			}
			if check {
				want, err := expect(op.Spec)
				switch {
				case err != nil:
					ans.OK, ans.Why = false, "direct run: "+err.Error()
				case ans.Mapper != op.Spec.Mapper || ans.MII != want.mii || ans.II != want.ii:
					ans.OK, ans.Why = false, fmt.Sprintf("served %s II %d MII %d, direct run %s II %d MII %d",
						ans.Mapper, ans.II, ans.MII, op.Spec.Mapper, want.ii, want.mii)
				}
			}
			if !ans.OK {
				failed++
				if failed <= 5 {
					rep.fail("pass %d op %d (%s %s seed %d): %s", pi, i, op.Spec.Mapper, op.Spec.Kernel, op.Spec.Seed, ans.Why)
				}
			}
		}
		if pi == 0 {
			first = p.signature() // after the checks above: a wrong answer changes the pass's QoM
		}
		if int(p.Stats.Executed) != p.cold() {
			rep.fail("pass %d: %d executions for %d cold ops (service.exec_per_cold must be 1.0)", pi, p.Stats.Executed, p.cold())
		}
		if sig := p.signature(); sig != first {
			rep.fail("pass %d differs from pass 0:\n  %s\n  %s", pi, sig, first)
		}
	}
	return failed
}

func passOps(cfg config) int {
	if cfg.smoke {
		return svcSmokeOps
	}
	return svcPassOps
}

// runSvc measures svc-mix end to end (tracing off).
func runSvc(ctx context.Context, cfg config) (*report, error) {
	rep := &report{Correct: true, Values: map[string]float64{}}
	dir := filepath.Join(cfg.outDir, "svc-mix")
	if err := removeSettled(dir); err != nil {
		return nil, err
	}
	defer removeSettled(dir)
	n := passOps(cfg)

	t0 := time.Now()
	env, err := setupSvc(ctx, dir, cfg.seed, n)
	if err != nil {
		return nil, err
	}
	defer func() { env.close(ctx) }()
	setups := []float64{time.Since(t0).Seconds()}
	loop := newPassLoop(cfg)
	defer loop.finish(rep)

	var passes []svcPass
	walls, err := timedPasses(cfg.budget(), func(i int) time.Duration {
		p := env.runPass(ctx, svcOps(cfg.seed, i, n), nil, i*n)
		passes = append(passes, p)
		return p.Wall
	}, loop.after)
	if err != nil {
		return nil, err
	}
	// setup_s is the median of several set-ups; the others are made
	// now, so that their file churn stays out of the timed passes.
	for len(setups) < cfg.setupRepeats(svcSetups) {
		if err := env.close(ctx); err != nil {
			return nil, err
		}
		if err := removeSettled(dir); err != nil {
			return nil, err
		}
		runtime.GC()
		t0 := time.Now()
		if env, err = setupSvc(ctx, dir, cfg.seed, n); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	rep.Failed = verifySvc(ctx, passes, rep)
	var tally passTally
	for i, p := range passes {
		rep.Attempted += len(p.Answers)
		var lat []float64
		ok := 0
		for _, a := range p.Answers {
			lat = append(lat, millis(a.Lat))
			if a.OK {
				ok++
			}
		}
		tally.add(walls[i], lat, ok)
	}
	tally.fill(rep, setups, passes[0].qom(), loop.heapMB)
	rep.notef("%s seed %d: %d passes of %d ops (%d cold), %d latency samples, %.1f s timed, %d closed-loop clients; pass walls (s) %.3f; set-ups (s) %.3f",
		cfg.workload, cfg.seed, len(passes), n, passes[0].cold(), len(tally.latMS), tally.total.Seconds(), svcClients, tally.wallS, setups)
	return rep, nil
}
