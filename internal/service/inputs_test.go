package service

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"panorama/internal/arch"
	"panorama/internal/core"
	"panorama/internal/dfg"
	"panorama/internal/kernels"
	"panorama/internal/verify"
)

func stubServer(t *testing.T) *Server {
	t.Helper()
	srv, err := New(Options{Run: func(ctx context.Context, job *Job) (core.Summary, error) {
		return core.Summary{Kernel: "stub", Success: true}, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Shutdown(context.Background()) })
	return srv
}

func mustResolve(t *testing.T, srv *Server, req Request) *resolved {
	t.Helper()
	res, err := srv.resolve(&req)
	if err != nil {
		t.Fatalf("resolve %+v: %v", req, err)
	}
	return res
}

// Requests naming the same kernel, scale and preset resolve to the same
// graph and architecture; the memo behind that is bounded; requests that
// carry their own graph or architecture own what they parsed; and what
// the resolver rejects, it rejects as before.
func TestResolveSharesInputs(t *testing.T) {
	srv := stubServer(t)

	a := mustResolve(t, srv, Request{Kernel: "fir", Scale: 0.25, Arch: "8x8", Mapper: "ultrafast", Seed: 1})
	b := mustResolve(t, srv, Request{Kernel: "fir", Scale: 0.25, Arch: "8x8", Mapper: "pan-spr", Seed: 2})
	if a.graph != b.graph || a.arch != b.arch {
		t.Fatalf("two resolves of one (kernel, scale, arch) built their own inputs: graphs %p %p, archs %p %p",
			a.graph, b.graph, a.arch, b.arch)
	}
	if a.fingerprint == b.fingerprint {
		t.Fatal("different mapper and seed, same fingerprint")
	}
	if def := mustResolve(t, srv, Request{Kernel: "fir", Scale: 0.25}); def.arch != a.arch {
		t.Fatal(`arch "" and "8x8" resolved to different instances`)
	}
	zero := mustResolve(t, srv, Request{Kernel: "fir", Arch: "4x4"})
	one := mustResolve(t, srv, Request{Kernel: "fir", Scale: 1.0, Arch: "4x4"})
	if zero.graph != one.graph || zero.fingerprint != one.fingerprint {
		t.Fatal("scale 0 and scale 1.0 are the same request but did not share an entry")
	}
	if zero.graph == a.graph || zero.arch == a.arch {
		t.Fatal("different scale or preset shared an instance")
	}
	if n := len(srv.inputs.graphs); n != 2 {
		t.Fatalf("memo holds %d graphs after two distinct (kernel, scale) pairs, want 2", n)
	}

	// Inline inputs keep today's path: parsed per request, never memoised.
	gjson, err := json.Marshal(a.graph)
	if err != nil {
		t.Fatal(err)
	}
	ajson, err := json.Marshal(a.arch.Config)
	if err != nil {
		t.Fatal(err)
	}
	in1 := mustResolve(t, srv, Request{DFG: gjson, ArchDesc: ajson, Mapper: "ultrafast", Seed: 1})
	in2 := mustResolve(t, srv, Request{DFG: gjson, ArchDesc: ajson, Mapper: "ultrafast", Seed: 1})
	if in1.graph == in2.graph || in1.arch == in2.arch || in1.graph == a.graph || in1.arch == a.arch {
		t.Fatal("inline dfg/archDesc requests must own their inputs")
	}
	if in1.fingerprint != a.fingerprint {
		t.Fatal("the same computation sent inline and by name has two fingerprints")
	}
	if n := len(srv.inputs.graphs); n != 2 {
		t.Fatalf("inline requests grew the memo to %d", n)
	}

	// The bound: scale is a client float, so distinct keys are unlimited.
	// Fill the memo, then push nine more capacities of distinct scales
	// through it: it stays at capacity and the live heap stays where the
	// full memo put it (a leak of 576 fir graphs would be megabytes).
	live := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	scaleAt := func(i int) float64 { return 0.25 + float64(i)*1e-9 } // same graph shape, distinct key
	for i := 1; i <= graphMemoCap; i++ {
		mustResolve(t, srv, Request{Kernel: "fir", Scale: scaleAt(i)})
	}
	full := live()
	for i := graphMemoCap + 1; i <= 10*graphMemoCap; i++ {
		mustResolve(t, srv, Request{Kernel: "fir", Scale: scaleAt(i)})
		if n := len(srv.inputs.graphs); n > graphMemoCap {
			t.Fatalf("memo holds %d graphs after %d distinct scales, capacity %d", n, i, graphMemoCap)
		}
	}
	if n := len(srv.inputs.graphs); n != graphMemoCap {
		t.Fatalf("memo holds %d graphs, want it full at %d", n, graphMemoCap)
	}
	if after := live(); after > full+1<<20 {
		t.Fatalf("live heap grew %d KB over %d evicting resolves", (after-full)>>10, 9*graphMemoCap)
	}
	// An evicted entry is rebuilt, not lost; same fingerprint either way.
	if again := mustResolve(t, srv, Request{Kernel: "fir", Scale: 0.25, Mapper: "ultrafast", Seed: 1}); again.fingerprint != a.fingerprint {
		t.Fatal("fingerprint changed across an eviction")
	}

	// Rejections: text and status as they were.
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, tc := range []struct{ body, class, message string }{
		{`{"kernel":"nosuch"}`, "bad-request", `kernels: unknown kernel "nosuch"`},
		{`{"kernel":"fir","arch":"3x3"}`, "bad-request", `unknown architecture "3x3" (want 4x4, 8x8, 9x9, 16x16)`},
		{`{"kernel":"fir","mapper":"magic"}`, "unknown-mapper", fmt.Sprintf(`unknown mapper "magic" (want one of %v)`, core.MapperNames())},
		{`{"kernel":"fir","dfg":{"name":"g","nodes":[],"edges":[]}}`, "bad-request", "request has both kernel and dfg; pick one"},
		{`{"arch":"8x8"}`, "bad-request", "request needs a kernel name or an inline dfg"},
	} {
		resp, err := http.Post(ts.URL+"/v1/map", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var got struct {
			Error ErrorInfo `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&got)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest || got.Error.Class != tc.class || got.Error.Message != tc.message {
			t.Errorf("%s: status %d class %q message %q, want 400 %q %q",
				tc.body, resp.StatusCode, got.Error.Class, got.Error.Message, tc.class, tc.message)
		}
	}
	if n := len(srv.inputs.graphs); n > graphMemoCap {
		t.Fatalf("rejected requests grew the memo to %d", n)
	}
}

// referenceKey is Key written out longhand — the edge copy and sort of
// dfg.Fingerprint included, as before the graph fingerprint was
// memoised — in the CodeVersion 4 layout, whose one budget field is
// Total. Cache files on disk and peers' hash rings are addressed by its
// output, so Key must keep producing exactly it.
func referenceKey(g *dfg.Graph, a *arch.CGRA, mapper string, seed int64, budgets core.Budgets) string {
	var buf [8]byte
	gh := sha256.New()
	gInt := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
		gh.Write(buf[:])
	}
	gh.Write([]byte("panorama/dfg/v1\x00"))
	gInt(len(g.Nodes))
	for _, nd := range g.Nodes {
		gInt(int(nd.Op))
	}
	edges := append([]dfg.Edge(nil), g.Edges...)
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].From != edges[j].From {
			return edges[i].From < edges[j].From
		}
		if edges[i].To != edges[j].To {
			return edges[i].To < edges[j].To
		}
		return edges[i].Dist < edges[j].Dist
	})
	gInt(len(edges))
	for _, e := range edges {
		gInt(e.From)
		gInt(e.To)
		gInt(e.Dist)
	}

	h := sha256.New()
	fmt.Fprintf(h, "panorama/service/v%d\x00", CodeVersion)
	fmt.Fprintf(h, "dfg:%s\x00", fmt.Sprintf("%x", gh.Sum(nil)))
	writeInts(h,
		a.Rows, a.Cols, a.ClusterRows, a.ClusterCols,
		a.NumRegs, a.RFReadPorts, a.RFWritePorts, a.InterClusterLinks)
	fmt.Fprintf(h, "mapper:%s\x00", mapper)
	writeInts(h, int(seed))
	writeInts(h, int(budgets.Total))
	return fmt.Sprintf("%x", h.Sum(nil))
}

// Key and resolve against the reference, on the twelve kernels x two
// scales x the four presets x a bare and a guided mapper, with the
// server's default budgets and with a request's own.
func TestKeyMatchesReference(t *testing.T) {
	srv := stubServer(t)
	budgets := core.Budgets{Total: 1500 * time.Millisecond}
	seen := map[string]bool{}
	for _, spec := range kernels.All() {
		for _, scale := range []float64{0.25, 1.0} {
			fresh := spec.Build(scale) // unfrozen and unshared
			for _, preset := range []string{"4x4", "8x8", "9x9", "16x16"} {
				a, err := arch.Preset(preset)
				if err != nil {
					t.Fatal(err)
				}
				for _, mapper := range []string{"spr", "pan-ultrafast"} {
					seed := int64(len(seen))
					want := referenceKey(fresh, a, mapper, seed, core.Budgets{})
					if seen[want] {
						t.Fatalf("%s@%g %s %s: reference key collides with an earlier case", spec.Name, scale, preset, mapper)
					}
					seen[want] = true
					res := mustResolve(t, srv, Request{Kernel: spec.Name, Scale: scale, Arch: preset, Mapper: mapper, Seed: seed})
					if res.fingerprint != want {
						t.Fatalf("%s@%g %s %s: resolve fingerprint %s, reference %s", spec.Name, scale, preset, mapper, res.fingerprint, want)
					}
					if got := Key(res.graph, res.arch, mapper, seed, core.Budgets{}); got != want {
						t.Fatalf("%s@%g %s %s: Key on the shared graph %s, reference %s", spec.Name, scale, preset, mapper, got, want)
					}
					if got := Key(fresh, a, mapper, seed, budgets); got != referenceKey(fresh, a, mapper, seed, budgets) {
						t.Fatalf("%s@%g %s %s: Key on an unfrozen graph with budgets %s differs from the reference", spec.Name, scale, preset, mapper, got)
					}
				}
			}
		}
	}
	if len(seen) != 12*2*4*2 {
		t.Fatalf("compared %d cases, want 192", len(seen))
	}
}

// A memoised resolve is a map lookup and one small hash. Counted, not
// timed: the count is the same on any machine.
func TestResolveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	srv := stubServer(t)
	req := Request{Kernel: "fir", Scale: 0.25, Arch: "8x8", Mapper: "pan-ultrafast", Seed: 7}
	mustResolve(t, srv, req) // warms the memo
	if n := testing.AllocsPerRun(200, func() {
		if _, err := srv.resolve(&req); err != nil {
			t.Fatal(err)
		}
	}); n > maxResolveAllocs {
		t.Fatalf("a memoised resolve allocates %.0f times, want <= %d (building a graph or a CGRA is hundreds)", n, maxResolveAllocs)
	}
}

// maxResolveAllocs is headroom over the measured 11 (the resolved
// struct, and in Key the SHA-256 state, three formatted writes, the
// variadic int slices and the hex string).
const maxResolveAllocs = 16

func mappingDigest(m *verify.Mapping) string {
	h := sha256.New()
	fmt.Fprint(h, m.Model, m.II, m.PlacePE, m.PlaceT, m.Routes)
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// The sharing contract under the race detector: twenty concurrent
// wait=true requests for one (kernel, scale, arch) — so one *dfg.Graph
// and one *arch.CGRA — with different seeds, on every mapper family,
// four workers mapping at once. Each job's II, MII and mapping must be
// what a fresh, unshared in-process core run of the same computation
// produces, and the graph and CGRA must come out as they went in.
func TestConcurrentJobsShareInputs(t *testing.T) {
	const kernel, scale, preset = "fir", 0.1, "4x4" // 34 nodes: small enough for sat
	mappers := []string{"spr", "pan-spr", "ultrafast", "pan-ultrafast", "sat"}
	const seeds = 4

	type outcome struct {
		mii, ii int
		mapping string
	}
	var (
		srv *Server
		mu  sync.Mutex
		ran = map[string]outcome{} // by fingerprint
	)
	srv, err := New(Options{Workers: 4, QueueSize: 32, PipelineWorkers: 1,
		Run: func(ctx context.Context, job *Job) (core.Summary, error) {
			res, err := mapJob(ctx, job, 1)
			if err != nil || res.Lower.Mapping == nil {
				return core.Summary{}, fmt.Errorf("job %s (%s seed %d) did not map: %v", job.ID, job.Mapper, job.Seed, err)
			}
			mu.Lock()
			ran[job.Fingerprint] = outcome{res.Lower.MII, res.Lower.II, mappingDigest(res.Lower.Mapping)}
			mu.Unlock()
			return res.Summarize(), nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	shared := mustResolve(t, srv, Request{Kernel: kernel, Scale: scale, Arch: preset})
	graphBefore, err := shared.graph.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	archBefore := fmt.Sprintf("%+v", *shared.arch)

	type reply struct {
		mapper string
		seed   int64
		code   int
		view   JobView
	}
	replies := make(chan reply, len(mappers)*seeds)
	var wg sync.WaitGroup
	for _, m := range mappers {
		for seed := int64(1); seed <= seeds; seed++ {
			wg.Add(1)
			go func(m string, seed int64) {
				defer wg.Done()
				body := fmt.Sprintf(`{"kernel":%q,"scale":%g,"arch":%q,"mapper":%q,"seed":%d,"wait":true}`, kernel, scale, preset, m, seed)
				resp, err := http.Post(ts.URL+"/v1/map", "application/json", strings.NewReader(body))
				if err != nil {
					t.Errorf("%s seed %d: %v", m, seed, err)
					return
				}
				defer resp.Body.Close()
				r := reply{mapper: m, seed: seed, code: resp.StatusCode}
				if err := json.NewDecoder(resp.Body).Decode(&r.view); err != nil {
					t.Errorf("%s seed %d: %v", m, seed, err)
					return
				}
				replies <- r
			}(m, seed)
		}
	}
	wg.Wait()
	close(replies)

	n := 0
	for r := range replies {
		n++
		if r.code != http.StatusOK || r.view.Result == nil || !r.view.Result.Success {
			t.Errorf("%s seed %d: status %d, %+v", r.mapper, r.seed, r.code, r.view)
			continue
		}
		job, ok := srv.Job(r.view.ID)
		if !ok || job.req.graph != shared.graph || job.req.arch != shared.arch {
			t.Errorf("%s seed %d: the job did not run on the shared graph and CGRA", r.mapper, r.seed)
		}
		got := ran[r.view.Fingerprint]

		// The same computation on inputs nobody else has touched.
		spec, err := kernels.ByName(kernel)
		if err != nil {
			t.Fatal(err)
		}
		g, a := spec.Build(scale), arch.Preset4x4()
		bare, guided := strings.CutPrefix(r.mapper, core.PanPrefix)
		lower, err := core.NewLowerByName(bare, r.seed)
		if err != nil {
			t.Fatal(err)
		}
		var ref *core.Result
		if guided {
			ref, err = core.MapPanoramaCtx(context.Background(), g, a, lower, core.Config{Seed: r.seed, RelaxOnFailure: true, Workers: 1})
		} else {
			ref, err = core.MapBaselineCtx(context.Background(), g, a, lower)
		}
		if err != nil {
			t.Fatalf("%s seed %d: reference run: %v", r.mapper, r.seed, err)
		}
		want := outcome{ref.Lower.MII, ref.Lower.II, mappingDigest(ref.Lower.Mapping)}
		if got != want {
			t.Errorf("%s seed %d: shared-input job %+v, unshared reference %+v", r.mapper, r.seed, got, want)
		}
		if r.view.Result.MII != want.mii || r.view.Result.II != want.ii {
			t.Errorf("%s seed %d: response MII %d II %d, reference %d %d", r.mapper, r.seed, r.view.Result.MII, r.view.Result.II, want.mii, want.ii)
		}
	}
	if n != len(mappers)*seeds {
		t.Fatalf("%d replies, want %d", n, len(mappers)*seeds)
	}
	if st := srv.Stats(); st.Executed != int64(n) || st.CacheHits != 0 || st.Coalesced != 0 {
		t.Fatalf("executed %d, hits %d, coalesced %d; want %d distinct executions", st.Executed, st.CacheHits, st.Coalesced, n)
	}

	graphAfter, err := shared.graph.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if string(graphAfter) != string(graphBefore) || fmt.Sprintf("%+v", *shared.arch) != archBefore {
		t.Fatal("a mapper wrote to the shared graph or CGRA")
	}
}
