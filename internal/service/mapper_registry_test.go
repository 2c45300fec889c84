package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
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

// TestUnknownMapper400ListsValidNames: an unknown mapper — made up, or
// the retired portfolio in either form — must come back as a typed 400
// whose error carries class "unknown-mapper" and the full list of
// accepted names, the registry's three mappers bare and guided.
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

	want := core.MapperNames()
	if len(want) != 6 {
		t.Fatalf("core.MapperNames() = %v, want 6 names", want)
	}
	for _, name := range []string{"magic", "portfolio", "pan-portfolio"} {
		resp, err := http.Post(ts.URL+"/v1/map", "application/json",
			strings.NewReader(fmt.Sprintf(`{"kernel":"fir","mapper":%q}`, name)))
		if err != nil {
			t.Fatal(err)
		}
		var out struct {
			Error ErrorInfo `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest || out.Error.Class != "unknown-mapper" {
			t.Errorf("%s: status %d class %q, want 400 unknown-mapper", name, resp.StatusCode, out.Error.Class)
		}
		if !strings.Contains(out.Error.Message, fmt.Sprintf("%q", name)) {
			t.Errorf("%s: message %q does not name the rejected mapper", name, out.Error.Message)
		}
		if !reflect.DeepEqual(out.Error.Valid, want) {
			t.Errorf("%s: valid list %v, want %v", name, out.Error.Valid, want)
		}
	}
}
