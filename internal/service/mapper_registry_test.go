package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"panorama/internal/core"
)

// TestMappersTracksRegistry: the request schema accepts exactly
// core.MapperNames() — every registered mapper in both bare and "pan-"
// form, and nothing else.
func TestMappersTracksRegistry(t *testing.T) {
	srv, err := New(Options{Workers: 1,
		Run: func(ctx context.Context, job *Job) (core.Summary, error) { return core.Summary{}, nil }})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	for _, n := range core.LowerNames() {
		for _, m := range []string{n, "pan-" + n} {
			if _, err := srv.resolve(&Request{Kernel: "fir", Scale: 0.1, Mapper: m}); err != nil {
				t.Errorf("registry mapper %q rejected: %v", m, err)
			}
		}
		for _, m := range []string{"pan-pan-" + n, "Pan-" + n, n + "-pan", "pan-"} {
			if _, err := srv.resolve(&Request{Kernel: "fir", Scale: 0.1, Mapper: m}); err == nil {
				t.Errorf("mapper %q accepted", m)
			}
		}
	}
}

// TestEveryRegisteredMapperResolves submits a request per accepted
// mapper name (with a stub runner, so no pipeline work happens) and
// checks each is admitted, fingerprinted distinctly, and echoes its
// mapper back.
func TestEveryRegisteredMapperResolves(t *testing.T) {
	srv, err := New(Options{Workers: 1, QueueSize: 32,
		Run: func(ctx context.Context, job *Job) (core.Summary, error) {
			return core.Summary{Kernel: "stub", Success: true, MII: 1, II: 1}, nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	prints := map[string]string{}
	for _, m := range core.MapperNames() {
		body := fmt.Sprintf(`{"kernel":"fir","scale":0.3,"arch":"4x4","mapper":%q,"seed":1,"wait":true}`, m)
		code, v := postMap(t, ts.URL, body)
		if code != http.StatusOK {
			t.Errorf("mapper %q: status %d, want 200", m, code)
			continue
		}
		if v.Mapper != m {
			t.Errorf("mapper %q echoed back as %q", m, v.Mapper)
		}
		if prev, dup := prints[v.Fingerprint]; dup {
			t.Errorf("mappers %q and %q share fingerprint %s", prev, m, v.Fingerprint)
		}
		prints[v.Fingerprint] = m
	}
}

// TestUnknownMapper400ListsValidNames: an unknown mapper must come
// back as a typed 400 whose error carries class "unknown-mapper" and
// the full list of accepted names.
func TestUnknownMapper400ListsValidNames(t *testing.T) {
	srv, err := New(Options{Workers: 1,
		Run: func(ctx context.Context, job *Job) (core.Summary, error) {
			return core.Summary{}, nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/map", "application/json",
		strings.NewReader(`{"kernel":"fir","mapper":"magic"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	var out struct {
		Error ErrorInfo `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Error.Class != "unknown-mapper" {
		t.Fatalf("class %q, want unknown-mapper", out.Error.Class)
	}
	if !strings.Contains(out.Error.Message, "magic") {
		t.Fatalf("message %q does not name the rejected mapper", out.Error.Message)
	}
	want := core.MapperNames()
	if len(out.Error.Valid) != len(want) {
		t.Fatalf("valid list %v, want %v", out.Error.Valid, want)
	}
	for i := range want {
		if out.Error.Valid[i] != want[i] {
			t.Fatalf("valid list %v, want %v", out.Error.Valid, want)
		}
	}
}

// TestServicePortfolioEndToEnd runs the real pipeline with the
// portfolio mapper: the response must carry a successful summary with
// the winning member recorded.
func TestServicePortfolioEndToEnd(t *testing.T) {
	srv, err := New(Options{Workers: 1, QueueSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := `{"kernel":"fir","scale":0.3,"arch":"4x4","mapper":"portfolio","seed":1,"wait":true}`
	code, v := postMap(t, ts.URL, body)
	if code != http.StatusOK {
		t.Fatalf("status %d (%+v)", code, v)
	}
	if v.Result == nil || !v.Result.Success {
		t.Fatalf("portfolio run did not map: %+v", v)
	}
	if v.Result.Winner == "" {
		t.Fatalf("summary does not record the winning member: %+v", v.Result)
	}
}
