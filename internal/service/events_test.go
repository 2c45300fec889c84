package service

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"panorama/internal/core"
)

// sseFrame is one parsed server-sent event.
type sseFrame struct {
	id    int
	event string
	data  string
}

// sseReader incrementally parses frames off a live SSE response body,
// skipping comment keep-alives.
type sseReader struct {
	sc *bufio.Scanner
}

func newSSEReader(body io.Reader) *sseReader {
	return &sseReader{sc: bufio.NewScanner(body)}
}

// next returns the next complete frame, or ok=false at end of stream.
func (r *sseReader) next(t *testing.T) (sseFrame, bool) {
	t.Helper()
	var f sseFrame
	seen := false
	for r.sc.Scan() {
		line := r.sc.Text()
		switch {
		case line == "":
			if seen {
				return f, true
			}
		case strings.HasPrefix(line, ":"):
			// keep-alive comment
		case strings.HasPrefix(line, "id: "):
			n, err := strconv.Atoi(line[4:])
			if err != nil {
				t.Fatalf("bad SSE id line %q", line)
			}
			f.id = n
			seen = true
		case strings.HasPrefix(line, "event: "):
			f.event = line[7:]
			seen = true
		case strings.HasPrefix(line, "data: "):
			f.data = line[6:]
			seen = true
		default:
			t.Fatalf("unexpected SSE line %q", line)
		}
	}
	return sseFrame{}, false
}

// drainSSE reads frames until the stream closes.
func drainSSE(t *testing.T, body io.Reader) []sseFrame {
	t.Helper()
	r := newSSEReader(body)
	var out []sseFrame
	for {
		f, ok := r.next(t)
		if !ok {
			return out
		}
		out = append(out, f)
	}
}

// openStream GETs an SSE endpoint with an optional Last-Event-ID.
func openStream(t *testing.T, ctx context.Context, url string, lastID int) *http.Response {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastID > 0 {
		req.Header.Set("Last-Event-ID", strconv.Itoa(lastID))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream Content-Type %q", ct)
	}
	return resp
}

// The full event lifecycle over one stream: queued, running, done —
// contiguous ids from 1, stream closed by the server after the
// terminal event.
func TestJobEventsStream(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	run := func(ctx context.Context, job *Job) (core.Summary, error) {
		close(started)
		<-release
		return core.Summary{Kernel: "stub", Success: true}, nil
	}
	srv, err := New(Options{Workers: 1, QueueSize: 4, Run: run})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, view := postMap(t, ts.URL, `{"kernel":"fir","seed":1}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	<-started

	resp := openStream(t, context.Background(), ts.URL+"/v1/jobs/"+view.ID+"/events", 0)
	defer resp.Body.Close()
	close(release)

	frames := drainSSE(t, resp.Body)
	if len(frames) != 3 {
		t.Fatalf("got %d frames, want 3: %+v", len(frames), frames)
	}
	wantTypes := []string{"queued", "running", "done"}
	for i, f := range frames {
		if f.id != i+1 || f.event != wantTypes[i] {
			t.Fatalf("frame %d = id %d event %q, want id %d event %q", i, f.id, f.event, i+1, wantTypes[i])
		}
		var ev Event
		if err := json.Unmarshal([]byte(f.data), &ev); err != nil {
			t.Fatalf("frame %d data: %v", i, err)
		}
		if ev.Seq != f.id || string(ev.Type) != f.event || ev.Job.ID != view.ID {
			t.Fatalf("frame %d payload disagrees with framing: %+v", i, ev)
		}
	}
	var last Event
	if err := json.Unmarshal([]byte(frames[2].data), &last); err != nil {
		t.Fatal(err)
	}
	if last.Job.Status != JobDone || last.Job.Result == nil {
		t.Fatalf("terminal event carries no result: %+v", last.Job)
	}

	st := srv.Stats()
	if st.SSEStreams != 1 || st.SSESent != 3 || st.SSEActive != 0 {
		t.Fatalf("sse stats: %+v", st)
	}

	// Unknown job → 404, not a hung stream.
	r2, err := http.Get(ts.URL + "/v1/jobs/job-999999/events")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job events: status %d", r2.StatusCode)
	}
}

// Disconnect mid-job and resume with Last-Event-ID: the second stream
// replays only the missed suffix, and a resume past the terminal event
// closes immediately instead of hanging.
func TestJobEventsResume(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	run := func(ctx context.Context, job *Job) (core.Summary, error) {
		close(started)
		<-release
		return core.Summary{Kernel: "stub", Success: true}, nil
	}
	srv, err := New(Options{Workers: 1, QueueSize: 4, Run: run})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, view := postMap(t, ts.URL, `{"kernel":"fir","seed":1}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	<-started

	// First client: read queued + running, then drop the connection.
	ctx1, cancel1 := context.WithCancel(context.Background())
	resp1 := openStream(t, ctx1, ts.URL+"/v1/jobs/"+view.ID+"/events", 0)
	r1 := newSSEReader(resp1.Body)
	cursor := 0
	for i := 0; i < 2; i++ {
		f, ok := r1.next(t)
		if !ok {
			t.Fatalf("stream ended after %d frames", i)
		}
		cursor = f.id
	}
	cancel1()
	resp1.Body.Close()

	close(release)
	waitForStatus(t, ts.URL, view.ID, JobDone)

	// Second client resumes where the first left off: only the
	// terminal event remains.
	resp2 := openStream(t, context.Background(), ts.URL+"/v1/jobs/"+view.ID+"/events", cursor)
	frames := drainSSE(t, resp2.Body)
	resp2.Body.Close()
	if len(frames) != 1 || frames[0].id != 3 || frames[0].event != "done" {
		t.Fatalf("resumed frames: %+v, want exactly [done id=3]", frames)
	}

	// Resuming past the terminal event: empty stream, clean close.
	resp3 := openStream(t, context.Background(), ts.URL+"/v1/jobs/"+view.ID+"/events", 3)
	if frames := drainSSE(t, resp3.Body); len(frames) != 0 {
		t.Fatalf("resume past terminal produced %+v", frames)
	}
	resp3.Body.Close()

	if st := srv.Stats(); st.SSEResumed != 2 {
		t.Fatalf("sseResumed = %d, want 2", st.SSEResumed)
	}
}

// The crash case: a client is streaming when the process dies mid-run.
// After journal recovery in a fresh process, resuming with the
// pre-crash Last-Event-ID yields the new attempt's running event and
// exactly one terminal event — nothing duplicated, nothing missed.
func TestJobEventsResumeAcrossRestart(t *testing.T) {
	jdir := t.TempDir()
	started := make(chan struct{})
	srv1, err := New(Options{
		Workers: 1, QueueSize: 4, JournalDir: jdir, JournalNoSync: true, RetryBase: -1,
		Run: func(ctx context.Context, job *Job) (core.Summary, error) {
			close(started)
			<-ctx.Done()
			return core.Summary{}, ctx.Err()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())

	code, view := postMap(t, ts1.URL, `{"kernel":"fir","seed":1}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	<-started

	// Stream up to the running event, as a live dashboard would.
	ctx1, cancel1 := context.WithCancel(context.Background())
	resp1 := openStream(t, ctx1, ts1.URL+"/v1/jobs/"+view.ID+"/events", 0)
	r1 := newSSEReader(resp1.Body)
	cursor := 0
	for i := 0; i < 2; i++ {
		f, ok := r1.next(t)
		if !ok {
			t.Fatalf("stream ended early")
		}
		cursor = f.id
	}
	if cursor != 2 {
		t.Fatalf("pre-crash cursor = %d, want 2 (queued, running)", cursor)
	}
	cancel1()
	resp1.Body.Close()
	ts1.Close()

	srv1.crashForTest()

	// Process 2: same journal, an executor that succeeds.
	srv2, err := New(Options{
		Workers: 1, QueueSize: 4, JournalDir: jdir, JournalNoSync: true, RetryBase: -1,
		Run: func(ctx context.Context, job *Job) (core.Summary, error) {
			return core.Summary{Kernel: "recovered", Success: true}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Shutdown(context.Background())
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()

	waitForStatus(t, ts2.URL, view.ID, JobDone)

	// Resume with the pre-crash cursor against the new process.
	resp2 := openStream(t, context.Background(), ts2.URL+"/v1/jobs/"+view.ID+"/events", cursor)
	frames := drainSSE(t, resp2.Body)
	resp2.Body.Close()
	if len(frames) != 2 {
		t.Fatalf("resumed frames after restart: %+v, want [running done]", frames)
	}
	if frames[0].id != 3 || frames[0].event != "running" {
		t.Fatalf("frame 0 = %+v, want running id=3 (attempt 2)", frames[0])
	}
	if frames[1].id != 4 || frames[1].event != "done" {
		t.Fatalf("frame 1 = %+v, want done id=4", frames[1])
	}

	// A fresh client replaying from 0 sees the full history once: the
	// journal-synthesized prefix marked recovered, one terminal event.
	resp3 := openStream(t, context.Background(), ts2.URL+"/v1/jobs/"+view.ID+"/events", 0)
	all := drainSSE(t, resp3.Body)
	resp3.Body.Close()
	if len(all) != 4 {
		t.Fatalf("full replay: %d frames, want 4: %+v", len(all), all)
	}
	terminals := 0
	for i, f := range all {
		if f.id != i+1 {
			t.Fatalf("replay ids not contiguous: %+v", all)
		}
		var ev Event
		if err := json.Unmarshal([]byte(f.data), &ev); err != nil {
			t.Fatal(err)
		}
		if terminalStatus(ev.Type) {
			terminals++
		}
		if i < 2 && !ev.Recovered {
			t.Fatalf("frame %d not marked recovered: %+v", i, ev)
		}
	}
	if terminals != 1 {
		t.Fatalf("replay carries %d terminal events, want exactly 1", terminals)
	}
}

// The batch aggregate stream: one "item" event per item in index
// order, then the "batch" summary; Last-Event-ID resumes mid-batch.
func TestBatchEventsStream(t *testing.T) {
	run := func(ctx context.Context, job *Job) (core.Summary, error) {
		return core.Summary{Kernel: "stub", Success: true}, nil
	}
	srv, err := New(Options{Workers: 2, QueueSize: 16, Run: run})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, _, bv := postBatch(t, ts.URL, `{"items":[
		{"kernel":"fir","seed":1},
		{"kernel":"fir","seed":2},
		{"kernel":"fir","seed":3}
	]}`)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("batch: status %d", code)
	}

	resp := openStream(t, context.Background(), ts.URL+"/v1/batch/"+bv.ID+"/events", 0)
	frames := drainSSE(t, resp.Body)
	resp.Body.Close()
	if len(frames) != 4 {
		t.Fatalf("batch stream: %d frames, want 4: %+v", len(frames), frames)
	}
	for i := 0; i < 3; i++ {
		if frames[i].id != i+1 || frames[i].event != "item" {
			t.Fatalf("frame %d = %+v, want item id=%d", i, frames[i], i+1)
		}
		var iv BatchItemView
		if err := json.Unmarshal([]byte(frames[i].data), &iv); err != nil {
			t.Fatal(err)
		}
		if iv.Index != i || iv.Status != JobDone {
			t.Fatalf("item frame %d: %+v", i, iv)
		}
	}
	if frames[3].event != "batch" || frames[3].id != 4 {
		t.Fatalf("final frame: %+v", frames[3])
	}
	var final BatchView
	if err := json.Unmarshal([]byte(frames[3].data), &final); err != nil {
		t.Fatal(err)
	}
	if !final.Done || final.ID != bv.ID {
		t.Fatalf("final batch view: %+v", final)
	}

	// Resume after item 2: only item 3 and the summary replay.
	resp2 := openStream(t, context.Background(), ts.URL+"/v1/batch/"+bv.ID+"/events", 2)
	tail := drainSSE(t, resp2.Body)
	resp2.Body.Close()
	if len(tail) != 2 || tail[0].id != 3 || tail[1].event != "batch" {
		t.Fatalf("resumed batch stream: %+v", tail)
	}

	// Unknown batch → 404.
	r3, err := http.Get(ts.URL + "/v1/batch/batch-999999/events")
	if err != nil {
		t.Fatal(err)
	}
	r3.Body.Close()
	if r3.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown batch events: status %d", r3.StatusCode)
	}
}

// Heartbeats keep an idle stream alive without fabricating events: a
// short heartbeat interval produces comment lines, which the parser
// skips, and the frames still arrive exactly once.
func TestJobEventsHeartbeat(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	run := func(ctx context.Context, job *Job) (core.Summary, error) {
		close(started)
		<-release
		return core.Summary{Kernel: "stub", Success: true}, nil
	}
	srv, err := New(Options{Workers: 1, QueueSize: 4, Run: run, SSEHeartbeat: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, view := postMap(t, ts.URL, `{"kernel":"fir","seed":1}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	<-started

	resp := openStream(t, context.Background(), ts.URL+"/v1/jobs/"+view.ID+"/events", 0)
	defer resp.Body.Close()
	// Let a few heartbeats through while the job idles mid-run.
	time.Sleep(50 * time.Millisecond)
	close(release)
	frames := drainSSE(t, resp.Body)
	if len(frames) != 3 {
		t.Fatalf("got %d frames, want 3: %+v", len(frames), frames)
	}
	if fmt.Sprintf("%s,%s,%s", frames[0].event, frames[1].event, frames[2].event) != "queued,running,done" {
		t.Fatalf("frame order: %+v", frames)
	}
}
