package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"panorama/internal/arch"
	"panorama/internal/core"
	"panorama/internal/kernels"
	"panorama/internal/wire"
)

func entry(fp string, ii int) Entry {
	return Entry{Fingerprint: fp, Summary: core.Summary{Kernel: fp, Success: true, II: ii, MII: ii}}
}

func TestCacheLRUEviction(t *testing.T) {
	c, err := NewCache(2, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, fp := range []string{"a", "b"} {
		if err := c.Put(entry(fp, 1)); err != nil {
			t.Fatal(err)
		}
	}
	// Touch "a" so "b" is the LRU victim.
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing")
	}
	if err := c.Put(entry("c", 1)); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted as least recently used")
	}
	for _, fp := range []string{"a", "c"} {
		if _, ok := c.Get(fp); !ok {
			t.Fatalf("%s missing after eviction", fp)
		}
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}

	// Re-putting an existing key updates in place without eviction.
	if err := c.Put(entry("a", 7)); err != nil {
		t.Fatal(err)
	}
	if e, _ := c.Get("a"); e.Summary.II != 7 {
		t.Fatalf("update in place failed: II = %d", e.Summary.II)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d after update, want 2", c.Len())
	}
}

func TestCacheDiskPersistence(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(entry("deadbeef", 3)); err != nil {
		t.Fatal(err)
	}

	// Atomic write: the entry file exists, no temp droppings remain.
	if _, err := os.Stat(filepath.Join(dir, "deadbeef.bin")); err != nil {
		t.Fatalf("persisted file missing: %v", err)
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		if strings.HasSuffix(de.Name(), ".tmp") {
			t.Fatalf("stray temp file %s after Put", de.Name())
		}
	}

	// A fresh cache on the same directory serves the entry (load-on-start).
	c2, err := NewCache(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	e, ok := c2.Get("deadbeef")
	if !ok {
		t.Fatal("entry not loaded from disk")
	}
	if !e.Summary.Success || e.Summary.II != 3 {
		t.Fatalf("loaded entry corrupted: %+v", e.Summary)
	}
}

// TestBareSPRRunCachesATimelessSummary pins what `panorama -mapper spr
// -cache-dir D` stores under the fingerprint panoramad serves from the
// same directory: a baseline run through the lowering registry, whose
// summary keeps the lower stage's provenance record but no wall time —
// the entry is a pure function of its fingerprint. Summarize copies the
// stage records, so the Result's own Provenance keeps its time.
func TestBareSPRRunCachesATimelessSummary(t *testing.T) {
	g, a := kernels.FIR(0.1), arch.Preset4x4()
	lower, err := core.NewLowerByName("spr", 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.MapBaselineCtx(context.Background(), g, a, lower)
	if err != nil || !res.Lower.Success {
		t.Fatalf("baseline spr run: success=%v err=%v", res != nil && res.Lower.Success, err)
	}
	dir := t.TempDir()
	c, err := NewCache(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	fp := Key(g, a, "spr", 1, core.Budgets{})
	if err := c.Put(Entry{Fingerprint: fp, Summary: res.Summarize()}); err != nil {
		t.Fatal(err)
	}
	c2, err := NewCache(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	e, ok := c2.Get(fp)
	if !ok {
		t.Fatal("entry not loaded from disk")
	}
	if want := res.Summarize(); !reflect.DeepEqual(e.Summary, want) {
		t.Fatalf("disk entry differs from the run's summary:\n got %+v\nwant %+v", e.Summary, want)
	}
	st := e.Summary.Stages
	if len(st) != 1 || st[0].Stage != "lower" || st[0].Note == "" || st[0].Wall != 0 {
		t.Errorf("want one untimed lower stage record with its note, got %+v", st)
	}
	if len(res.Provenance.Stages) != 1 || res.Provenance.Stages[0].Wall <= 0 {
		t.Errorf("Summarize wiped the Result's own stage time: %+v", res.Provenance.Stages)
	}
}

// TestCacheEntryIsAPureFunctionOfItsKey maps one request on two fresh
// servers whose pipelines use a different number of workers: the cache
// entry each writes and the result each returns must be the same
// bytes, so peers that map one fingerprint agree on its entry and a
// hit returns nothing that depends on the run that made it.
func TestCacheEntryIsAPureFunctionOfItsKey(t *testing.T) {
	const body = `{"kernel":"fir","scale":0.1,"arch":"4x4","mapper":"pan-ultrafast","seed":1,"wait":true}`
	var entries, results [2][]byte
	for i, workers := range []int{1, 2} {
		srv, err := New(Options{Workers: 1, QueueSize: 4, PipelineWorkers: workers})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Shutdown(context.Background())
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		code, v := postMap(t, ts.URL, body)
		if code != http.StatusOK || v.Result == nil || !v.Result.Success {
			t.Fatalf("PipelineWorkers %d: status %d, view %+v", workers, code, v)
		}
		e, ok := srv.Cache().Get(v.Fingerprint)
		if !ok {
			t.Fatalf("PipelineWorkers %d: no cache entry for %s", workers, v.Fingerprint)
		}
		if entries[i], err = e.MarshalBinary(); err != nil {
			t.Fatal(err)
		}
		if results[i], err = json.Marshal(v.Result); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(entries[0], entries[1]) {
		t.Errorf("cache entries differ between runs:\n%x\n%x", entries[0], entries[1])
	}
	if !bytes.Equal(results[0], results[1]) {
		t.Errorf("results differ between runs:\n%s\n%s", results[0], results[1])
	}
}

// v1Entry spells e in the retired version-1 PCEN layout, which also
// carried four wall-time floats after QoM and a wall-time varint in
// every stage record.
func v1Entry(e Entry) []byte {
	s := &e.Summary
	buf := append([]byte(entryMagic), 1)
	buf = wire.AppendString(buf, e.Fingerprint)
	buf = wire.AppendString(buf, s.Kernel)
	buf = append(buf, 1) // Success: every entry spelled here succeeded
	for _, v := range []int{s.MII, s.II, s.Candidates, s.PartitionK} {
		buf = binary.AppendVarint(buf, int64(v))
	}
	for _, f := range []float64{s.QoM, 1.5, 0.5, 12.25, 14.25} {
		buf = wire.AppendFloat(buf, f)
	}
	buf = wire.AppendString(buf, s.Guidance)
	buf = wire.AppendString(buf, s.BudgetStage)
	buf = binary.AppendUvarint(buf, uint64(len(s.Stages)))
	for _, st := range s.Stages {
		buf = wire.AppendString(buf, st.Stage)
		buf = binary.AppendVarint(buf, int64(12250*time.Microsecond))
		buf = wire.AppendString(buf, st.Note)
	}
	return buf
}

func TestCacheLoadSkipsCorruptAndForeignFiles(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(entry("good", 2)); err != nil {
		t.Fatal(err)
	}
	// A corrupt file, a file whose name disagrees with its content, a
	// well-formed entry in the retired v1 layout and a foreign file must
	// not break startup or leak entries.
	if err := os.WriteFile(filepath.Join(dir, "corrupt.bin"), []byte("PCEN\x02truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(filepath.Join(dir, "good.bin"))
	if err := os.WriteFile(filepath.Join(dir, "renamed.bin"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	old := entry("old", 4)
	old.Summary.Stages = []core.StageRecord{{Stage: "lower", Note: "guided"}}
	if err := os.WriteFile(filepath.Join(dir, "old.bin"), v1Entry(old), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "README"), []byte("not a cache entry"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A valid entry truncated mid-file — the classic torn write.
	if err := c.Put(entry("truncated", 5)); err != nil {
		t.Fatal(err)
	}
	tb, err := os.ReadFile(filepath.Join(dir, "truncated.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "truncated.bin"), tb[:len(tb)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	c2, err := NewCache(8, dir)
	if err != nil {
		t.Fatalf("load with corrupt files failed: %v", err)
	}
	if _, ok := c2.Get("good"); !ok {
		t.Fatal("good entry lost")
	}
	if _, ok := c2.Get("old"); ok {
		t.Fatal("a v1 entry was served; it must be skipped and recomputed")
	}
	if c2.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (corrupt/foreign files must be skipped)", c2.Len())
	}
	// Skips are counted and surfaced: corrupt.bin, renamed.bin, old.bin
	// and the truncated entry. README is never a candidate.
	if got := c2.LoadSkipped(); got != 4 {
		t.Fatalf("LoadSkipped = %d, want 4", got)
	}
	if c.LoadSkipped() != 0 {
		t.Fatal("a cache that loaded nothing must report 0 skips")
	}
}

// The skip counter is exported as a metric family so operators see
// silent data loss in the cache directory without reading logs.
func TestCacheLoadSkippedMetricExported(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "broken.bin"), []byte("PCEN"), 0o644); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Options{CacheDir: dir, Run: func(ctx context.Context, job *Job) (core.Summary, error) {
		return core.Summary{Success: true}, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	if srv.Cache().LoadSkipped() != 1 {
		t.Fatalf("LoadSkipped = %d, want 1", srv.Cache().LoadSkipped())
	}
	var sb strings.Builder
	if err := srv.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "# TYPE panorama_cache_load_skipped_total counter") {
		t.Fatal("panorama_cache_load_skipped_total family missing from /metricsz")
	}
}

func TestCacheLoadKeepsNewestWithinCapacity(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Now().Add(-time.Hour)
	for i, fp := range []string{"old", "mid", "new"} {
		if err := c.Put(entry(fp, i+1)); err != nil {
			t.Fatal(err)
		}
		// Separate the mtimes well beyond filesystem resolution.
		mt := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(filepath.Join(dir, fp+".bin"), mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	c2, err := NewCache(2, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get("old"); ok {
		t.Fatal("oldest entry should not be loaded past capacity")
	}
	for _, fp := range []string{"mid", "new"} {
		if _, ok := c2.Get(fp); !ok {
			t.Fatalf("%s missing: newest entries must survive a capped load", fp)
		}
	}
}

// The cache has one codec. A directory written by a build that predates
// it holds <fingerprint>.json files: they are not read (an entry is a
// pure function of its fingerprint, so it recomputes on its next miss),
// not deleted, and counted into the skip total.
func TestCacheIgnoresLegacyJSONEntries(t *testing.T) {
	dir := t.TempDir()
	for i, fp := range []string{"legacy-a", "legacy-b"} {
		data, err := json.Marshal(entry(fp, 4+i))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, fp+".json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	before := mCacheLoadSkipped.Value()
	c, err := NewCache(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d, want 0: a directory of only .json files loads empty", c.Len())
	}
	if _, ok := c.Get("legacy-a"); ok {
		t.Fatal("a legacy .json entry was served")
	}
	if got := c.LoadSkipped(); got != 2 {
		t.Fatalf("LoadSkipped = %d, want 2", got)
	}
	if got := mCacheLoadSkipped.Value() - before; got != 2 {
		t.Fatalf("panorama_cache_load_skipped_total moved by %d, want 2", got)
	}
	for _, fp := range []string{"legacy-a", "legacy-b"} {
		if _, err := os.Stat(filepath.Join(dir, fp+".json")); err != nil {
			t.Fatalf("legacy file must be left on disk: %v", err)
		}
	}
}

// A .json twin of a .bin entry — the directory an upgraded service
// rewrote an entry in — does not shadow it, however new the twin is.
func TestCacheLegacyTwinDoesNotShadowBinaryEntry(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(entry("dup", 9)); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-30 * time.Minute)
	if err := os.Chtimes(filepath.Join(dir, "dup.bin"), old, old); err != nil {
		t.Fatal(err)
	}
	jsonData, err := json.Marshal(entry("dup", 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "dup.json"), jsonData, 0o644); err != nil {
		t.Fatal(err)
	}

	c2, err := NewCache(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := c2.Get("dup"); !ok || got.Summary.II != 9 {
		t.Fatalf("binary entry shadowed by its .json twin: ok=%v II=%d, want 9", ok, got.Summary.II)
	}
	if c2.Len() != 1 || c2.LoadSkipped() != 1 {
		t.Fatalf("Len = %d, LoadSkipped = %d, want 1 and 1", c2.Len(), c2.LoadSkipped())
	}
}

func TestCacheSweepsStaleTmpFiles(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, "crashed.123.tmp")
	if err := os.WriteFile(stale, []byte("partial write"), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-2 * time.Hour)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	// A fresh temp file may belong to a live writer in another process
	// and must survive the sweep.
	fresh := filepath.Join(dir, "inflight.456.tmp")
	if err := os.WriteFile(fresh, []byte("partial write"), 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := NewCache(8, dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale tmp not swept: %v", err)
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Fatalf("fresh tmp must be left alone: %v", err)
	}
}
