package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"panorama/internal/cluster"
	"panorama/internal/core"
	"panorama/internal/dfg"
	"panorama/internal/journal"
	"panorama/internal/loadtest"
	"panorama/internal/obs"
	"panorama/internal/service"
)

const (
	probeJobs    = 50      // sequential cold jobs behind journal.*_per_job
	probeSeed0   = 900_000 // their mapper seeds: below every coldSeed, above the warm pool's
	probeRounds  = 200     // repetitions of each microsecond-scale probe
	probeAppends = 100     // journal appends per sync mode
)

// dirBytes sums the sizes of the regular files directly under dir.
func dirBytes(dir string) (int64, error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, de := range des {
		fi, err := de.Info()
		if err != nil {
			return 0, err
		}
		if fi.Mode().IsRegular() {
			total += fi.Size()
		}
	}
	return total, nil
}

// meanUS times rounds calls of fn and returns the mean in microseconds.
func meanUS(rounds int, fn func(i int) error) (float64, error) {
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		if err := fn(i); err != nil {
			return 0, err
		}
	}
	return micros(time.Since(t0)) / float64(rounds), nil
}

// journalPerJob issues probeJobs cold jobs one at a time on the
// still-small journal and reads what each cost it: records appended
// and bytes on disk. A compaction in between would rewrite the
// segment and spoil the byte count; then it reads 0.
func (e *svcEnv) journalPerJob(ctx context.Context, rep *report) (records, bytes float64, err error) {
	js0, _ := e.h.Srv.JournalStats()
	b0, err := dirBytes(e.opts.JournalDir)
	if err != nil {
		return 0, 0, err
	}
	c0 := obs.Default.Snapshot()
	x0 := e.h.Srv.Stats().Executed
	for j := 0; j < probeJobs; j++ {
		op := newSvcOp(coldKernels[j%len(coldKernels)], svcColdMapper, probeSeed0+int64(j), true)
		if ans := e.post(ctx, op, ""); !ans.OK {
			return 0, 0, fmt.Errorf("journal probe job %d: %s", j, ans.Why)
		}
	}
	js1, _ := e.h.Srv.JournalStats()
	b1, err := dirBytes(e.opts.JournalDir)
	if err != nil {
		return 0, 0, err
	}
	if got := e.h.Srv.Stats().Executed - x0; got != probeJobs {
		rep.fail("journal probe: %d executions for %d cold jobs", got, probeJobs)
	}
	records = sumPrefix(countDelta(c0, obs.Default.Snapshot()), "panorama_journal_records_total") / probeJobs
	if js1.Compactions != js0.Compactions {
		rep.notef("journal compacted during the per-job probe; journal.bytes_per_job not measured")
		return records, 0, nil
	}
	return records, float64(b1-b0) / probeJobs, nil
}

// journalAppend times Append on a scratch journal with the service's
// record shapes, with and without the per-record fsync.
func journalAppend(dir string, noSync bool) (float64, error) {
	j, err := journal.Open(dir, journal.Options{NoSync: noSync})
	if err != nil {
		return 0, err
	}
	defer j.Close()
	blob := make([]byte, 1024) // about one quick-scale job payload
	return meanUS(probeAppends, func(i int) error {
		return j.Append(journal.Record{Kind: journal.Submitted, JobID: fmt.Sprintf("job-%06d", i),
			Key: "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef", Blob: blob})
	})
}

// traceSvc is the traced run of svc-mix: one untraced reference pass,
// one traced pass, then the layer probes on the same server and
// filesystem. It reports every per-layer metric.
func traceSvc(ctx context.Context, cfg config) (*report, error) {
	rep := &report{Correct: true, Values: map[string]float64{}}
	v := rep.Values
	dir := filepath.Join(cfg.outDir, "svc-mix")
	if err := removeSettled(dir); err != nil {
		return nil, err
	}
	defer removeSettled(dir)
	host := newHostNoise(cfg)
	defer host.close()
	n := passOps(cfg)
	env, err := setupSvc(ctx, dir, cfg.seed, n)
	if err != nil {
		return nil, err
	}
	defer func() { env.close(ctx) }()

	if v["journal.records_per_job"], v["journal.bytes_per_job"], err = env.journalPerJob(ctx, rep); err != nil {
		return nil, err
	}

	ref := env.runPass(ctx, svcOps(cfg.seed, 0, n), nil, 0)
	if err := host.sample(); err != nil {
		return nil, err
	}
	rec := newRecorder()
	var m0, m1 runtime.MemStats
	js0, _ := env.h.Srv.JournalStats()
	runtime.ReadMemStats(&m0)
	traced := env.runPass(ctx, svcOps(cfg.seed, 1, n), rec, n)
	runtime.ReadMemStats(&m1)
	js1, _ := env.h.Srv.JournalStats()
	if err := host.sample(); err != nil {
		return nil, err
	}
	passes := []svcPass{ref, traced}
	rep.Failed = verifySvc(ctx, passes, rep)
	rep.Attempted = 2 * n
	traced = passes[1]

	var hit, cold []float64
	for i, a := range traced.Answers {
		if traced.Ops[i].Cold {
			cold = append(cold, millis(a.Lat))
		} else {
			hit = append(hit, millis(a.Lat))
		}
	}
	v["service.hit_p50_ms"], v["service.hit_p99_ms"] = median(hit), percentile(hit, 99)
	v["service.cold_p50_ms"], v["service.cold_p99_ms"] = median(cold), percentile(cold, 99)
	v["service.executed"] = float64(traced.Stats.Executed)
	v["service.cache_hits"] = float64(traced.Stats.Hits)
	v["service.coalesced"] = float64(traced.Stats.Coalesced)
	v["service.rejected"] = float64(traced.Stats.Rejected)
	v["service.retried"] = float64(traced.Stats.Retried)
	v["service.exec_per_cold"] = float64(traced.Stats.Executed) / float64(traced.cold())
	v["journal.compactions"] = float64(js1.Compactions - js0.Compactions)
	v["ultrafast.attempts"] = traced.Counts["panorama_ultrafast_attempts_total"]
	v["ultrafast.placements"] = traced.Counts["panorama_ultrafast_placements_total"]

	hostRuntimeValues(v, host, ref.Wall, traced.Wall, &m0, &m1)

	// Layer probes, on the graphs and the filesystem the passes used.
	a, err := archPreset(svcArch)
	if err != nil {
		return nil, err
	}
	var graphs []*dfg.Graph
	t0 := time.Now()
	for _, op := range warmPool()[:len(warmKernels)] {
		g, err := buildKernel(op.Spec.Kernel, op.Spec.Scale)
		if err != nil {
			return nil, err
		}
		graphs = append(graphs, g)
		v["dfg.nodes"] += float64(g.NumNodes())
	}
	v["kernels.build_ms"] = millis(time.Since(t0))
	if v["dfg.fingerprint_us"], v["dfg.codec_us"], err = graphProbes(graphs); err != nil {
		return nil, err
	}
	if v["service.http_floor_us"], err = meanUS(probeRounds, func(int) error {
		resp, err := env.client.Get(env.h.URL() + "/healthz")
		if err != nil {
			return err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return err
	}); err != nil {
		return nil, err
	}
	var fp string
	if v["service.key_us"], err = meanUS(probeRounds, func(i int) error {
		fp = service.Key(graphs[i%len(graphs)], a, svcWarmMapper, mapperSeed, core.Budgets{})
		return nil
	}); err != nil {
		return nil, err
	}
	entry := service.Entry{Fingerprint: fp, Summary: core.Summary{Kernel: "probe", Success: true, MII: 2, II: 3, QoM: 2.0 / 3,
		Guidance: "guided", Stages: []core.StageRecord{{Stage: "clustering"}, {Stage: "clustermap"}, {Stage: "lower", Note: "guided"}}}}
	if v["service.codec_us"], err = meanUS(probeRounds, func(int) error {
		data, err := entry.MarshalBinary()
		if err != nil {
			return err
		}
		var back service.Entry
		return back.UnmarshalBinary(data)
	}); err != nil {
		return nil, err
	}
	cache, err := service.NewCache(0, filepath.Join(dir, "probe-cache"))
	if err != nil {
		return nil, err
	}
	if v["service.cache_put_us"], err = meanUS(probeRounds, func(i int) error {
		e := entry
		e.Fingerprint = fmt.Sprintf("%s-%04d", fp, i)
		return cache.Put(e)
	}); err != nil {
		return nil, err
	}
	if v["service.cache_get_us"], err = meanUS(probeRounds, func(i int) error {
		if _, ok := cache.Get(fmt.Sprintf("%s-%04d", fp, i)); !ok {
			return fmt.Errorf("cache probe: entry %d missing", i)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if v["journal.append_sync_us"], err = journalAppend(filepath.Join(dir, "probe-journal-sync"), false); err != nil {
		return nil, err
	}
	if v["journal.append_nosync_us"], err = journalAppend(filepath.Join(dir, "probe-journal-nosync"), true); err != nil {
		return nil, err
	}
	ring := cluster.NewRing([]string{"http://a:1", "http://b:1", "http://c:1"}, 0)
	owners := 0
	ringUS, _ := meanUS(100*probeRounds, func(i int) error {
		if ring.Owner(fp) != "" {
			owners++
		}
		return nil
	})
	v["cluster.ring_lookup_ns"] = ringUS * 1000
	if owners == 0 {
		rep.fail("ring probe: no owner for %s", fp)
	}

	// Restart over the populated directories: drain, then journal
	// replay plus cache load. A warm spec must still be a hit after.
	t0 = time.Now()
	if err := env.h.Close(ctx); err != nil {
		return nil, err
	}
	h, err := loadtest.NewHarness(env.opts)
	if err != nil {
		return nil, err
	}
	v["service.restart_s"] = time.Since(t0).Seconds()
	env.h = h
	if ans := env.post(ctx, warmPool()[0], "hit"); !ans.OK {
		rep.fail("after restart: %s", ans.Why)
	}

	path := filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json")
	if err := rec.write(path, cfg.workload, cfg.seed); err != nil {
		return nil, err
	}
	rep.notef("%s seed %d traced: untraced pass %.3f s, traced pass %.3f s, %d hit and %d cold samples; spans in %s",
		cfg.workload, cfg.seed, ref.Wall.Seconds(), traced.Wall.Seconds(), len(hit), len(cold), path)
	host.note(rep)
	return rep, nil
}
