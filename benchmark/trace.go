package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one benchmark-side interval around a call into a layer.
// Spans of one op share Op; Parent is the index of the span that
// caused this one (-1 for a root). Times are nanoseconds since the
// recorder started.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNS int64  `json:"startNS"`
	EndNS   int64  `json:"endNS"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so the untraced run pays one nil check per call.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// start opens a span and returns its id (-1 on a nil recorder).
func (r *recorder) start(parent, op int, name string) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, StartNS: now, EndNS: -1})
	r.mu.Unlock()
	return id
}

// end closes a span opened by start.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id].EndNS = now
	r.mu.Unlock()
}

// total sums the duration of every closed span called name.
func (r *recorder) total(name string) time.Duration {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var t int64
	for _, s := range r.spans {
		if s.Name == name && s.EndNS >= 0 {
			t += s.EndNS - s.StartNS
		}
	}
	return time.Duration(t)
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its child spans cover (overlapping children are
// counted once).
func selfTimes(spans []span) []int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].StartNS < kids[b].StartNS })
		covered, edge := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, edge), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[i] = s.EndNS - s.StartNS - covered
	}
	return out
}

// traceFile is the on-disk form of a traced run.
type traceFile struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Spans    []span  `json:"spans"`
	SelfNS   []int64 `json:"selfNS"` // parallel to Spans
}

// write dumps the spans with their self times to path.
func (r *recorder) write(path, workload string, seed int64) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Spans: spans, SelfNS: selfTimes(spans)})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
