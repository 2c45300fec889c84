package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"panorama/internal/core"
	"panorama/internal/journal"
	"panorama/internal/wire"
)

// crashForTest hard-drops the server the way a dead process would:
// the journal stops accepting records first (so unwinding jobs cannot
// write their terminal records, exactly like a crash mid-flight), then
// every running job's context is cut and the workers are collected.
// The on-disk journal and cache are left exactly as a kill -9 would.
func (s *Server) crashForTest() {
	s.journal.Close()
	s.baseCancel()
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// crashEnv is the state shared across the simulated process boundary:
// completion counts per fingerprint, so the exactly-once property is
// checked over both processes together.
type crashEnv struct {
	mu          sync.Mutex
	completions map[string]int
}

func (e *crashEnv) complete(fp string) {
	e.mu.Lock()
	e.completions[fp]++
	e.mu.Unlock()
}

// deterministic summary per job: byte-identical across processes by
// construction, so any divergence the test sees is real state leakage.
func crashSummary(job *Job) core.Summary {
	return core.Summary{
		Kernel:  "crash-" + job.Fingerprint[:8],
		Success: true,
		MII:     2,
		II:      int(job.Seed) + 2,
	}
}

// The acceptance scenario: N jobs enqueued, the service hard-dropped
// mid-flight, the journal reopened into a fresh Service — every job
// must complete exactly once with byte-identical summaries.
func TestCrashRecoveryExactlyOnce(t *testing.T) {
	const n = 8
	base := t.TempDir()
	jdir := filepath.Join(base, "journal")
	cdir := filepath.Join(base, "cache")
	env := &crashEnv{completions: make(map[string]int)}
	block := make(chan struct{})

	mkRun := func(blocking bool) RunFunc {
		return func(ctx context.Context, job *Job) (core.Summary, error) {
			if blocking && job.Seed > 3 {
				select {
				case <-block:
				case <-ctx.Done():
					return core.Summary{}, ctx.Err()
				}
			}
			sum := crashSummary(job)
			env.complete(job.Fingerprint)
			return sum, nil
		}
	}

	srv1, err := New(Options{
		Workers:       2,
		QueueSize:     n,
		JournalDir:    jdir,
		JournalNoSync: true,
		CacheDir:      cdir,
		Run:           mkRun(true),
	})
	if err != nil {
		t.Fatal(err)
	}

	type jobRef struct {
		id, fp  string
		preCopy []byte // summary JSON for jobs completed before the crash
	}
	refs := make([]jobRef, 0, n)
	for seed := 1; seed <= n; seed++ {
		res, err := srv1.resolve(&Request{Kernel: "fir", Scale: 0.25, Arch: "8x8", Mapper: "pan-spr", Seed: int64(seed)})
		if err != nil {
			t.Fatal(err)
		}
		outs, err := srv1.admit([]*resolved{res})
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, jobRef{id: outs[0].Job.ID, fp: outs[0].Job.Fingerprint})
	}

	// Seeds 1-3 complete; 4 and 5 stall in flight; 6-8 sit queued.
	for i := 0; i < 3; i++ {
		select {
		case <-srv1.jobByID(t, refs[i].id).Done():
		case <-time.After(10 * time.Second):
			t.Fatalf("job %s never finished before the crash", refs[i].id)
		}
		sum, ok := srv1.jobByID(t, refs[i].id).Summary()
		if !ok {
			t.Fatalf("job %s has no summary", refs[i].id)
		}
		refs[i].preCopy, _ = json.Marshal(sum)
	}
	waitFor(t, func() bool { return int(srv1.running.Load()) == 2 }, "both workers to stall in flight")

	srv1.crashForTest()

	// Process 2: same journal and cache, nothing shared in memory.
	srv2, err := New(Options{
		Workers:       2,
		QueueSize:     4, // smaller than the recovered set: New must grow the queue
		JournalDir:    jdir,
		JournalNoSync: true,
		CacheDir:      cdir,
		Run:           mkRun(false),
	})
	if err != nil {
		t.Fatalf("reopening the journal into a fresh service: %v", err)
	}
	defer srv2.Shutdown(context.Background())

	if st := srv2.Stats(); st.Recovered != 5 {
		t.Fatalf("recovered %d jobs, want 5 (seeds 4-8)", st.Recovered)
	}
	for _, ref := range refs[3:] {
		job, ok := srv2.Job(ref.id)
		if !ok {
			t.Fatalf("job %s not recovered under its original id", ref.id)
		}
		select {
		case <-job.Done():
		case <-time.After(10 * time.Second):
			t.Fatalf("recovered job %s never completed", ref.id)
		}
		if job.Err() != nil {
			t.Fatalf("recovered job %s failed: %v", ref.id, job.Err())
		}
	}

	// Exactly once: every fingerprint completed in exactly one process.
	env.mu.Lock()
	defer env.mu.Unlock()
	if len(env.completions) != n {
		t.Fatalf("%d distinct jobs completed, want %d", len(env.completions), n)
	}
	for fp, count := range env.completions {
		if count != 1 {
			t.Fatalf("fingerprint %s completed %d times, want exactly once", fp, count)
		}
	}

	// Byte-identical: pre-crash results come back from the persistent
	// cache unchanged, and recovered jobs produced the deterministic
	// summary their fingerprint demands.
	for i, ref := range refs {
		e, ok := srv2.Cache().Get(ref.fp)
		if !ok {
			t.Fatalf("job %s result missing from the reopened cache", ref.id)
		}
		got, _ := json.Marshal(e.Summary)
		var want []byte
		if i < 3 {
			want = ref.preCopy
		} else {
			job, _ := srv2.Job(ref.id)
			sum, _ := job.Summary()
			want, _ = json.Marshal(sum)
		}
		if string(got) != string(want) {
			t.Fatalf("job %s summary changed across the crash:\npre:  %s\npost: %s", ref.id, want, got)
		}
	}

	// Job IDs continue past the recovered ones — no collisions.
	res, err := srv2.resolve(&Request{Kernel: "fir", Scale: 0.25, Arch: "8x8", Mapper: "pan-spr", Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	outs, err := srv2.admit([]*resolved{res})
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].Job.ID != fmt.Sprintf("job-%06d", n+1) {
		t.Fatalf("post-recovery job id %s, want job-%06d", outs[0].Job.ID, n+1)
	}
}

func (s *Server) jobByID(t *testing.T, id string) *Job {
	t.Helper()
	job, ok := s.Job(id)
	if !ok {
		t.Fatalf("unknown job %s", id)
	}
	return job
}

// A torn journal tail — the crash landed mid-write, or the disk ate
// trailing bytes — must not fail startup, and every intact record must
// still recover.
func TestCrashRecoveryTornTail(t *testing.T) {
	base := t.TempDir()
	jdir := filepath.Join(base, "journal")
	block := make(chan struct{})
	srv1, err := New(Options{
		Workers:       1,
		QueueSize:     4,
		JournalDir:    jdir,
		JournalNoSync: true,
		Run: func(ctx context.Context, job *Job) (core.Summary, error) {
			select {
			case <-block:
				return crashSummary(job), nil
			case <-ctx.Done():
				return core.Summary{}, ctx.Err()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, 0, 2)
	for seed := 1; seed <= 2; seed++ {
		res, err := srv1.resolve(&Request{Kernel: "fir", Scale: 0.25, Arch: "8x8", Seed: int64(seed)})
		if err != nil {
			t.Fatal(err)
		}
		outs, err := srv1.admit([]*resolved{res})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, outs[0].Job.ID)
	}
	srv1.crashForTest()

	// Tear the tail: a half-written record after the intact ones.
	segs, err := filepath.Glob(filepath.Join(jdir, "*.pjrn"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no journal segment found: %v", err)
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x7f, 0x01, 0x02}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	srv2, err := New(Options{
		Workers:       1,
		JournalDir:    jdir,
		JournalNoSync: true,
		Run: func(ctx context.Context, job *Job) (core.Summary, error) {
			return crashSummary(job), nil
		},
	})
	if err != nil {
		t.Fatalf("startup over a torn journal: %v", err)
	}
	defer srv2.Shutdown(context.Background())
	js, ok := srv2.JournalStats()
	if !ok || js.DroppedBytes == 0 {
		t.Fatalf("torn bytes not detected: %+v", js)
	}
	for _, id := range ids {
		job, ok := srv2.Job(id)
		if !ok {
			t.Fatalf("intact job %s lost to the torn tail", id)
		}
		select {
		case <-job.Done():
		case <-time.After(10 * time.Second):
			t.Fatalf("recovered job %s never completed", id)
		}
		if job.Err() != nil {
			t.Fatalf("recovered job %s failed: %v", id, job.Err())
		}
	}
}

// The graceful path: a draining journal-backed server marks still-
// queued jobs requeue-on-restart instead of cancelling them, and the
// next process resumes them.
func TestDrainRequeuesAndRestartResumes(t *testing.T) {
	base := t.TempDir()
	jdir := filepath.Join(base, "journal")
	cdir := filepath.Join(base, "cache")
	release := make(chan struct{})
	started := make(chan struct{}, 3) // one send per job: never blocks a worker
	srv1, err := New(Options{
		Workers:       1,
		QueueSize:     4,
		JournalDir:    jdir,
		JournalNoSync: true,
		CacheDir:      cdir,
		Run: func(ctx context.Context, job *Job) (core.Summary, error) {
			started <- struct{}{}
			select {
			case <-release:
				return crashSummary(job), nil
			case <-ctx.Done():
				return core.Summary{}, ctx.Err()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	jobs := make([]*Job, 0, 3)
	for seed := 1; seed <= 3; seed++ {
		res, err := srv1.resolve(&Request{Kernel: "fir", Scale: 0.25, Arch: "8x8", Seed: int64(seed)})
		if err != nil {
			t.Fatal(err)
		}
		outs, err := srv1.admit([]*resolved{res})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, outs[0].Job)
	}
	// The first job must be inside its executor before the drain begins:
	// a worker that has only dequeued it (running == 1) still checks the
	// draining flag and would hand it back too.
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("the first job never started")
	}
	// The drain must begin while that job still holds the worker:
	// released first, the job could finish and the worker run the
	// queued jobs before Shutdown marks the server draining.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- srv1.Shutdown(ctx) }()
	for !srv1.isDraining() {
		runtime.Gosched()
	}
	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("graceful drain: %v", err)
	}

	// The in-flight job finished; the queued ones were handed back.
	if st := jobs[0].View().Status; st != JobDone {
		t.Fatalf("in-flight job status %q, want done", st)
	}
	requeued := 0
	for _, j := range jobs[1:] {
		if j.View().Status == JobRequeued {
			requeued++
		}
	}
	if requeued == 0 {
		t.Fatal("no queued job was marked requeue-on-restart by the drain")
	}
	if st := srv1.Stats(); st.Requeued != int64(requeued) {
		t.Fatalf("requeued stat %d, want %d", st.Requeued, requeued)
	}

	srv2, err := New(Options{
		Workers:       1,
		JournalDir:    jdir,
		JournalNoSync: true,
		CacheDir:      cdir,
		Run: func(ctx context.Context, job *Job) (core.Summary, error) {
			return crashSummary(job), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Shutdown(context.Background())
	if st := srv2.Stats(); int(st.Recovered) != requeued {
		t.Fatalf("recovered %d jobs after drain, want %d", st.Recovered, requeued)
	}
	for _, j := range jobs[1:] {
		if j.View().Status != JobRequeued {
			continue
		}
		job, ok := srv2.Job(j.ID)
		if !ok {
			t.Fatalf("requeued job %s not resumed", j.ID)
		}
		select {
		case <-job.Done():
		case <-time.After(10 * time.Second):
			t.Fatalf("resumed job %s never completed", j.ID)
		}
		if job.Err() != nil {
			t.Fatalf("resumed job %s failed: %v", j.ID, job.Err())
		}
	}
}

// A job payload journaled in the version 1 layout (four budget
// varints: Clustering, ClusterMap, Lower, Total) still replays: Total
// survives, and the fingerprint is today's Key, so a result the
// re-run caches is found by a fresh request. A version this build
// does not know is refused.
func TestCrashRecoveryReplaysV1Payload(t *testing.T) {
	const total = 900 * time.Millisecond
	req := mustResolve(t, stubServer(t), Request{Kernel: "fir", Scale: 0.1, Arch: "4x4",
		Mapper: "ultrafast", Seed: 3, TimeoutMS: total.Milliseconds()})
	gbin, err := req.graph.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var ab bytes.Buffer
	if err := req.arch.WriteJSON(&ab); err != nil {
		t.Fatal(err)
	}
	v1 := []byte{1}
	v1 = wire.AppendBytes(v1, gbin)
	v1 = wire.AppendBytes(v1, ab.Bytes())
	v1 = wire.AppendString(v1, req.mapper)
	v1 = binary.AppendVarint(v1, req.seed)
	for _, d := range []time.Duration{7, 8, 9, total} {
		v1 = binary.AppendVarint(v1, int64(d))
	}

	got, err := decodeJobPayload(v1)
	if err != nil {
		t.Fatalf("v1 payload refused: %v", err)
	}
	if got.budgets.Total != total {
		t.Fatalf("v1 payload replayed Total %v, want %v", got.budgets.Total, total)
	}
	if want := Key(got.graph, got.arch, got.mapper, got.seed, core.Budgets{Total: total}); got.fingerprint != want || got.fingerprint != req.fingerprint {
		t.Fatalf("v1 payload fingerprint %s, want Key %s (request %s)", got.fingerprint, want, req.fingerprint)
	}

	v2, err := encodeJobPayload(got)
	if err != nil {
		t.Fatal(err)
	}
	if v2[0] != 2 {
		t.Fatalf("payload written as version %d, want 2", v2[0])
	}
	for _, v := range []byte{0, 3} {
		bad := append([]byte{v}, v2[1:]...)
		if _, err := decodeJobPayload(bad); err == nil {
			t.Fatalf("version %d payload accepted", v)
		}
	}
}

// A job journaled under a mapper name this build no longer registers
// (the retired portfolio) is the upgrade path of a mapper's deletion:
// recovery must neither run nor keep it, must cancel it in the journal
// with the unreadable-payload note, and a second restart must replay
// nothing.
func TestCrashRecoveryCancelsRetiredMapper(t *testing.T) {
	jdir := filepath.Join(t.TempDir(), "journal")
	req := mustResolve(t, stubServer(t), Request{Kernel: "fir", Scale: 0.1, Arch: "4x4", Mapper: "spr", Seed: 1})
	req.mapper = "portfolio"
	blob, err := encodeJobPayload(req)
	if err != nil {
		t.Fatal(err)
	}
	jn, err := journal.Open(jdir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	const id = "job-000001"
	if err := jn.Append(journal.Record{Kind: journal.Submitted, JobID: id, Key: req.fingerprint, Blob: blob}); err != nil {
		t.Fatal(err)
	}
	if err := jn.Close(); err != nil {
		t.Fatal(err)
	}

	var runs atomic.Int32
	restart := func() *Server {
		srv, err := New(Options{Workers: 1, JournalDir: jdir, JournalNoSync: true,
			Run: func(ctx context.Context, job *Job) (core.Summary, error) {
				runs.Add(1)
				return core.Summary{}, nil
			}})
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}

	before := journalKinds()
	srv := restart()
	if _, ok := srv.Job(id); ok || srv.Stats().Recovered != 0 {
		t.Fatalf("job naming a retired mapper was recovered (%d recovered)", srv.Stats().Recovered)
	}
	srv.Shutdown(context.Background())
	if got := kindsSince(before); !reflect.DeepEqual(got, map[string]int{"cancelled": 1}) {
		t.Fatalf("recovery appended %v, want one cancelled record", got)
	}
	segs, err := filepath.Glob(filepath.Join(jdir, "*.pjrn"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("journal segments %v (%v), want one", segs, err)
	}
	if data, err := os.ReadFile(segs[0]); err != nil || !bytes.Contains(data, []byte("unreadable payload on recovery")) {
		t.Fatalf("no cancelled record with the unreadable-payload note in %s (%v)", segs[0], err)
	}

	before = journalKinds()
	srv = restart()
	if n := srv.Stats().Recovered; n != 0 {
		t.Fatalf("second restart recovered %d jobs, want 0", n)
	}
	srv.Shutdown(context.Background())
	if got := kindsSince(before); len(got) != 0 {
		t.Fatalf("second restart appended %v, want nothing", got)
	}
	if n := runs.Load(); n != 0 {
		t.Fatalf("Run called %d times for a job naming a retired mapper", n)
	}
}

// MaxAttempts bounds journal replays: a job whose Started record shows
// it already ran MaxAttempts times (each run ended with its process) is
// failed on recovery without running, and a second restart replays
// nothing, so a job that kills the process is not replayed forever.
func TestCrashRecoveryStopsAtMaxAttempts(t *testing.T) {
	const maxAttempts = 2
	jdir := filepath.Join(t.TempDir(), "journal")
	req := mustResolve(t, stubServer(t), Request{Kernel: "fir", Scale: 0.1, Arch: "4x4", Mapper: "spr", Seed: 1})
	blob, err := encodeJobPayload(req)
	if err != nil {
		t.Fatal(err)
	}
	jn, err := journal.Open(jdir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	const id = "job-000001"
	for _, r := range []journal.Record{
		{Kind: journal.Submitted, JobID: id, Key: req.fingerprint, Blob: blob},
		{Kind: journal.Started, JobID: id, Key: req.fingerprint, Attempt: maxAttempts},
	} {
		if err := jn.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := jn.Close(); err != nil {
		t.Fatal(err)
	}

	var runs atomic.Int32
	restart := func() *Server {
		srv, err := New(Options{Workers: 1, JournalDir: jdir, JournalNoSync: true, MaxAttempts: maxAttempts,
			Run: func(ctx context.Context, job *Job) (core.Summary, error) {
				runs.Add(1)
				return core.Summary{Kernel: "k", Success: true}, nil
			}})
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}

	before := journalKinds()
	srv := restart()
	job, ok := srv.Job(id)
	if !ok {
		t.Fatal("the job was not recovered")
	}
	<-job.Done()
	if v := job.View(); v.Status != JobFailed || v.Attempts != maxAttempts {
		t.Fatalf("recovered job view %+v, want failed after %d attempts", v, maxAttempts)
	}
	srv.Shutdown(context.Background())
	if got := kindsSince(before); !reflect.DeepEqual(got, map[string]int{"failed": 1}) {
		t.Fatalf("recovery appended %v, want one failed record", got)
	}

	before = journalKinds()
	srv = restart()
	if n := srv.Stats().Recovered; n != 0 {
		t.Fatalf("second restart recovered %d jobs, want 0", n)
	}
	srv.Shutdown(context.Background())
	if got := kindsSince(before); len(got) != 0 {
		t.Fatalf("second restart appended %v, want nothing", got)
	}
	if n := runs.Load(); n != 0 {
		t.Fatalf("Run called %d times for a job past its replay bound", n)
	}
}
