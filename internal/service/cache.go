package service

import (
	"container/list"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"panorama/internal/core"
	"panorama/internal/obs"
)

// mCacheLoadSkipped counts persisted entries the cache refused to load:
// unreadable files, corrupt or foreign content, files whose name no
// longer matches the fingerprint inside, and .json entries left by
// builds that predate the binary codec. Silent skips hid operator
// errors (a bad volume, a truncating copy); now they're visible.
var mCacheLoadSkipped = obs.NewCounter("panorama_cache_load_skipped_total",
	"Persisted cache entries skipped at load (unreadable, corrupt, or foreign).")

// Entry is one cached mapping result, addressed by the canonical
// fingerprint of the computation that produced it (see Key).
type Entry struct {
	Fingerprint string       `json:"fingerprint"`
	Summary     core.Summary `json:"summary"`
}

// Cache is a content-addressed result cache: an in-memory LRU over
// mapping summaries, optionally persisted to a directory (one file per
// entry, written atomically via rename) in the versioned binary codec
// as <fingerprint>.bin. Mapping results are deterministic functions of
// their fingerprint, so entries never need invalidation — only
// eviction — and an entry in a format this build cannot read is simply
// recomputed on its next miss.
//
// All methods are safe for concurrent use.
type Cache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*list.Element // fingerprint -> lru element holding *Entry
	lru     *list.List               // front = most recently used
	dir     string                   // "" = memory only

	loadSkipped int // entries skipped by loadDir (corrupt/foreign/unreadable)
}

// DefaultCacheSize is the LRU capacity used when a caller passes
// size <= 0.
const DefaultCacheSize = 4096

// NewCache returns a cache holding up to size entries in memory
// (size <= 0 means DefaultCacheSize). When dir is non-empty it is
// created if needed and every Put is persisted there; entries already
// in the directory are loaded eagerly (most recently modified first,
// up to the memory capacity).
func NewCache(size int, dir string) (*Cache, error) {
	if size <= 0 {
		size = DefaultCacheSize
	}
	c := &Cache{
		cap:     size,
		entries: make(map[string]*list.Element),
		lru:     list.New(),
		dir:     dir,
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("service: cache dir: %w", err)
		}
		if err := c.loadDir(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Get returns the entry for fp and marks it most recently used.
func (c *Cache) Get(fp string) (Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[fp]
	if !ok {
		return Entry{}, false
	}
	c.lru.MoveToFront(el)
	return *el.Value.(*Entry), true
}

// Put stores an entry under its fingerprint, evicting the least
// recently used entry beyond capacity, and persists it when the cache
// is disk-backed. Persistence failures are returned but leave the
// in-memory entry in place (the service keeps serving; the operator
// sees the error in the log).
func (c *Cache) Put(e Entry) error {
	c.mu.Lock()
	if el, ok := c.entries[e.Fingerprint]; ok {
		el.Value = &e
		c.lru.MoveToFront(el)
	} else {
		c.entries[e.Fingerprint] = c.lru.PushFront(&e)
		for c.lru.Len() > c.cap {
			oldest := c.lru.Back()
			c.lru.Remove(oldest)
			delete(c.entries, oldest.Value.(*Entry).Fingerprint)
		}
	}
	dir := c.dir
	c.mu.Unlock()
	if dir == "" {
		return nil
	}
	return c.persist(dir, e)
}

// Len returns the number of in-memory entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// LoadSkipped reports how many persisted entries the load pass refused
// (corrupt, foreign, or unreadable files).
func (c *Cache) LoadSkipped() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.loadSkipped
}

// persist writes the entry to dir atomically: a temp file in the same
// directory, fsync-free (the cache is a cache), then rename. A crash
// mid-write leaves either the old file or a stray *.tmp that load
// skips (and eventually sweeps, see staleTmpAge).
func (c *Cache) persist(dir string, e Entry) error {
	data, err := e.MarshalBinary()
	if err != nil {
		return fmt.Errorf("service: encoding cache entry: %w", err)
	}
	tmp, err := os.CreateTemp(dir, e.Fingerprint+".*.tmp")
	if err != nil {
		return fmt.Errorf("service: cache write: %w", err)
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		if werr == nil {
			werr = cerr
		}
		return fmt.Errorf("service: cache write: %w", werr)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, e.Fingerprint+".bin")); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("service: cache write: %w", err)
	}
	return nil
}

// staleTmpAge is how old a stray *.tmp file must be before loadDir
// removes it. A temp file only exists between CreateTemp and the
// rename in persist, so anything this old is debris from a crashed
// writer — but a fresh one may belong to a live writer in another
// process sharing the directory, and is left alone.
const staleTmpAge = time.Hour

// loadDir fills the LRU from the persistence directory, newest first
// so that when the directory holds more entries than the memory
// capacity the most recently written ones survive. Stray *.tmp files
// older than staleTmpAge (crashed writers) are removed on the way.
func (c *Cache) loadDir() error {
	des, err := os.ReadDir(c.dir)
	if err != nil {
		return fmt.Errorf("service: cache dir: %w", err)
	}
	type candidate struct {
		name  string
		mtime int64
	}
	var cands []candidate
	legacy := 0
	for _, de := range des {
		if de.IsDir() {
			continue
		}
		ext := filepath.Ext(de.Name())
		if ext == ".json" {
			legacy++
			continue
		}
		if ext != ".bin" && ext != ".tmp" {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		if ext == ".tmp" {
			if time.Since(info.ModTime()) > staleTmpAge {
				os.Remove(filepath.Join(c.dir, de.Name()))
			}
			continue
		}
		cands = append(cands, candidate{de.Name(), info.ModTime().UnixNano()})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].mtime > cands[j].mtime })
	if len(cands) > c.cap {
		cands = cands[:c.cap]
	}
	// Entries from builds that predate the binary codec are left on disk
	// unread: counted here, reported by the summary line below, and
	// recomputed on their next miss.
	c.loadSkipped += legacy
	mCacheLoadSkipped.Add(int64(legacy))
	// Insert oldest first so LRU order matches write order.
	skip := func(name, why string) {
		c.loadSkipped++
		mCacheLoadSkipped.Inc()
		log.Printf("service: cache: skipping %s: %s", name, why)
	}
	for i := len(cands) - 1; i >= 0; i-- {
		data, err := os.ReadFile(filepath.Join(c.dir, cands[i].name))
		if err != nil {
			skip(cands[i].name, err.Error())
			continue
		}
		var e Entry
		if e.UnmarshalBinary(data) != nil || e.Fingerprint == "" {
			skip(cands[i].name, "corrupt or foreign content") // don't fail startup
			continue
		}
		if strings.TrimSuffix(cands[i].name, ".bin") != e.Fingerprint {
			skip(cands[i].name, "file name does not match the fingerprint inside")
			continue
		}
		c.entries[e.Fingerprint] = c.lru.PushFront(&e)
	}
	if c.loadSkipped > 0 {
		log.Printf("service: cache: loaded %d entr(ies), skipped %d file(s) in %s (%d corrupt/foreign, %d legacy .json)",
			c.lru.Len(), c.loadSkipped, c.dir, c.loadSkipped-legacy, legacy)
	}
	return nil
}
