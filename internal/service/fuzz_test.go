package service

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"
	"time"

	"panorama/internal/core"
	"panorama/internal/kernels"
	"panorama/internal/wire"
)

// FuzzServiceRequest drives the POST /v1/map request decoder and
// validator with arbitrary JSON. Admission is not exercised (no jobs
// are enqueued); the properties are that resolve never panics, never
// accepts a request without a graph, an architecture, and a known
// mapper, never builds a kernel graph larger than maxScale allows, never
// resolves a budget above the server's Budgets.Total, and is
// deterministic — two resolutions of one request must agree on the
// cache fingerprint, or the content-addressed cache would return wrong
// results. Corpus under testdata/fuzz/FuzzServiceRequest; regenerate
// with `go run ./cmd/gencorpus`.
func FuzzServiceRequest(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"kernel":"fir","arch":"4x4","mapper":"ultrafast","seed":7}`))
	f.Add([]byte(`{"kernel":"fir","scale":5}`))
	f.Add([]byte(`{"dfg":{"name":"x","nodes":[{"id":0,"op":1}],"edges":[]}}`))
	f.Add([]byte(`{"kernel":"fir","timeoutMS":9223372036854775807}`))
	const total = time.Minute
	s, err := New(Options{Budgets: core.Budgets{Total: total}})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req Request
		if json.Unmarshal(data, &req) != nil {
			return
		}
		r1, err := s.resolve(&req)
		if err != nil {
			return // a rejected request only needs to not panic
		}
		if r1.graph == nil || r1.arch == nil {
			t.Fatal("resolve accepted a request without a graph or architecture")
		}
		if core.CheckMapper(r1.mapper) != nil {
			t.Fatalf("resolve accepted unknown mapper %q", r1.mapper)
		}
		if b := r1.budgets.Total; b <= 0 || b > total {
			t.Fatalf("timeoutMS %d resolved to budget %v, outside (0, %v]", req.TimeoutMS, b, total)
		}
		// An accepted kernel's graph is bounded: no scale builds more
		// than maxScale does.
		if req.Kernel != "" {
			spec, err := kernels.ByName(req.Kernel)
			if err != nil {
				t.Fatalf("resolve accepted unknown kernel %q", req.Kernel)
			}
			if n, limit := len(r1.graph.Nodes), len(spec.Build(maxScale).Nodes); n > limit {
				t.Fatalf("scale %g built %d nodes, more than the %d at maxScale", req.Scale, n, limit)
			}
		}
		r2, err := s.resolve(&req)
		if err != nil {
			t.Fatalf("second resolution of an accepted request failed: %v", err)
		}
		if r1.fingerprint != r2.fingerprint {
			t.Fatalf("resolve is not deterministic: %s vs %s", r1.fingerprint, r2.fingerprint)
		}
	})
}

// FuzzWireDecoders feeds arbitrary bytes to the two internal/wire
// clients no other target reaches: the cache-entry codec and the
// journal job payload (FuzzCodecRoundTrip and FuzzJournalReplay cover
// the graph and record codecs). Neither decoder may panic or allocate
// more than a multiple of its input, and whatever one accepts
// re-encodes to a canonical form that decodes and re-encodes to the
// same bytes. Seeded from the encoders, so it needs no committed
// corpus.
func FuzzWireDecoders(f *testing.F) {
	s, err := New(Options{})
	if err != nil {
		f.Fatal(err)
	}
	res, err := s.resolve(&Request{Kernel: "fir", Scale: 0.1, Arch: "4x4", Mapper: "ultrafast", Seed: 3, TimeoutMS: 900})
	if err != nil {
		f.Fatal(err)
	}
	payload, err := encodeJobPayload(res)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(payload)
	for _, e := range []*Entry{
		{Fingerprint: "f0"},
		{Fingerprint: res.fingerprint, Summary: core.Summary{Kernel: "fir", Success: true, MII: 2, II: 3, QoM: 2. / 3,
			Guidance: "full", Stages: []core.StageRecord{{Stage: "lower", Note: "ok"}}}},
	} {
		enc, err := e.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}

	// allocated runs fn and returns the heap bytes it allocated.
	allocated := func(fn func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var e Entry
		var derr error
		if n := allocated(func() { derr = e.UnmarshalBinary(data) }); n > 64*uint64(len(data))+1<<16 {
			t.Fatalf("entry decode of %d bytes allocated %d", len(data), n)
		}
		if derr == nil {
			enc, _ := e.MarshalBinary()
			var back Entry
			if err := back.UnmarshalBinary(enc); err != nil {
				t.Fatalf("canonical entry failed to decode: %v", err)
			}
			if again, _ := back.MarshalBinary(); !bytes.Equal(enc, again) {
				t.Fatal("canonical entry encoding is not byte-stable")
			}
		}

		// The payload's architecture is built, not just parsed, so keep
		// the fuzzer off fabrics whose size is the allocation.
		r := wire.NewReader("", data)
		r.Byte() // every payload version starts with the graph, then the arch
		r.Bytes()
		var dims struct{ Rows, Cols int }
		if json.Unmarshal(r.Bytes(), &dims) == nil && (dims.Rows > 32 || dims.Cols > 32) {
			return
		}
		var req *resolved
		if n := allocated(func() { req, derr = decodeJobPayload(data) }); n > 256*uint64(len(data))+8<<20 {
			t.Fatalf("job payload decode of %d bytes allocated %d", len(data), n)
		}
		if derr != nil {
			return
		}
		enc, err := encodeJobPayload(req)
		if err != nil {
			t.Fatalf("accepted job payload failed to re-encode: %v", err)
		}
		back, err := decodeJobPayload(enc)
		if err != nil {
			t.Fatalf("canonical job payload failed to decode: %v", err)
		}
		if again, _ := encodeJobPayload(back); !bytes.Equal(enc, again) || back.fingerprint != req.fingerprint {
			t.Fatal("canonical job payload is not byte-stable")
		}
	})
}
