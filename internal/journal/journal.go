// Package journal is the crash-safe job journal behind panoramad: an
// append-only, fsync'd, versioned binary write-ahead log of job
// lifecycle events (submitted, started, completed, failed, cancelled,
// requeued), keyed by job ID and the service's content-addressed
// computation key.
//
// The on-disk format (PJRN v1) is one or more segment files
// `journal-<seq>.pjrn`, each a 5-byte header ("PJRN", version byte)
// followed by length-prefixed records:
//
//	uvarint payload length | payload | CRC-32C of the payload (LE)
//
// A record payload is, in order: kind byte, job ID string, key string,
// attempt uvarint, note string, blob bytes — strings and the blob as
// uvarint length + raw bytes, in the style of the PDFG/PCEN codecs.
// The blob of a Submitted record carries the re-runnable request
// payload; the other kinds leave it empty.
//
// Replay is torn-tail tolerant: a truncated length, an impossible
// length, a CRC mismatch, or an undecodable payload ends replay of
// that segment at the last intact record instead of failing startup,
// and the active segment is truncated back to the intact prefix so
// later appends never follow garbage. Recovery never loses an intact
// record.
//
// Segments are size-bounded: when the active segment outgrows
// Options.SegmentBytes the journal compacts — the still-live jobs
// (submitted or requeued, no terminal record) are rewritten into a
// fresh segment, carrying their accumulated attempt counts, and the
// old segments are deleted. Completed, failed and cancelled jobs are
// dropped by compaction, so journal size is bounded by the live job
// set, not by service lifetime.
package journal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"panorama/internal/faultinject"
	"panorama/internal/obs"
	"panorama/internal/wire"
)

const (
	segMagic   = "PJRN"
	segVersion = 1
	headerLen  = len(segMagic) + 1
)

// DefaultSegmentBytes is the rotation threshold used when
// Options.SegmentBytes is zero.
const DefaultSegmentBytes = 1 << 20

var (
	mRecords = obs.NewCounterVec("panorama_journal_records_total",
		"Records appended to the job journal, by kind.", "kind")
	mAppendErrors = obs.NewCounter("panorama_journal_append_errors_total",
		"Journal appends that failed (write, sync, or injected fault); the job proceeded without durability.")
	mReplayed = obs.NewCounter("panorama_journal_replayed_records_total",
		"Records recovered by journal replay at startup.")
	mDroppedBytes = obs.NewCounter("panorama_journal_dropped_bytes_total",
		"Bytes of torn or corrupt journal tail dropped during replay.")
	mCompactions = obs.NewCounter("panorama_journal_compactions_total",
		"Journal compactions (startup garbage collection and size-triggered rotation).")
)

// Kind is the lifecycle event a journal record describes.
type Kind uint8

// The journal record kinds. Completed, Failed and Cancelled are
// terminal: replay drops jobs whose last lifecycle record is one of
// them. Submitted and Requeued leave the job live; Started counts an
// execution attempt against the job's retry budget.
const (
	Submitted Kind = iota + 1
	Started
	Completed
	Failed
	Cancelled
	Requeued
)

// String names the kind for logs and metric labels.
func (k Kind) String() string {
	switch k {
	case Submitted:
		return "submitted"
	case Started:
		return "started"
	case Completed:
		return "completed"
	case Failed:
		return "failed"
	case Cancelled:
		return "cancelled"
	case Requeued:
		return "requeued"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

func (k Kind) valid() bool { return k >= Submitted && k <= Requeued }

// terminal reports whether the kind ends a job's journal lifecycle.
func (k Kind) terminal() bool {
	return k == Completed || k == Failed || k == Cancelled
}

// Record is one journal entry. JobID and Key identify the job (Key is
// the service's content-addressed computation fingerprint); Attempt is
// the execution attempt a Started record begins (and, on a Submitted
// record written by compaction, the attempts already consumed); Note
// carries the failure class or a human-readable reason; Blob is the
// re-runnable request payload of a Submitted record.
type Record struct {
	Kind    Kind
	JobID   string
	Key     string
	Attempt int
	Note    string
	Blob    []byte
}

// Options tunes a Journal.
type Options struct {
	// SegmentBytes is the active-segment size that triggers
	// compaction into a fresh segment (0 = DefaultSegmentBytes).
	SegmentBytes int64
	// NoSync skips the fsync after each append. Only tests that
	// measure something other than durability should set it.
	NoSync bool
}

// Stats describes what Open found and what the journal has done since.
type Stats struct {
	// Segments is the number of segment files found at Open.
	Segments int
	// Replayed is the number of intact records recovered at Open.
	Replayed int
	// DroppedBytes is the total size of torn/corrupt segment suffixes
	// discarded at Open.
	DroppedBytes int
	// Compactions counts compactions over the journal's lifetime
	// (including the one Open may run).
	Compactions int
	// AppendErrors counts appends that failed after Open.
	AppendErrors int
}

// jobState is the replayed lifecycle of one job.
type jobState struct {
	seq       int // submit order
	submitted Record
	attempts  int
	terminal  bool
}

// Journal is an open job journal. All methods are safe for concurrent
// use.
type Journal struct {
	mu     sync.Mutex
	dir    string
	opts   Options
	f      *os.File
	size   int64
	seq    int64 // active segment sequence number
	state  map[string]*jobState
	order  int
	closed bool
	stats  Stats
}

// Open replays every segment under dir (creating the directory if
// needed), reconstructs the live job set, compacts away replayed
// garbage, and leaves the journal ready to append. Torn or corrupt
// segment tails are dropped, never fatal; only filesystem-level
// failures (unreadable directory, uncreatable segment) error.
func Open(dir string, opts Options) (*Journal, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: dir: %w", err)
	}
	j := &Journal{dir: dir, opts: opts, state: make(map[string]*jobState)}

	names, err := segmentNames(dir)
	if err != nil {
		return nil, err
	}
	j.stats.Segments = len(names)
	terminals := 0
	lastGood := -1
	for i, name := range names {
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("journal: reading %s: %w", name, err)
		}
		recs, good := parseSegment(data)
		if i == len(names)-1 {
			lastGood = good
		}
		dropped := len(data) - good
		if dropped > 0 {
			j.stats.DroppedBytes += dropped
			mDroppedBytes.Add(int64(dropped))
			if i == len(names)-1 {
				// Truncate the active segment back to its intact
				// prefix so appends never follow garbage. (Earlier
				// segments are about to be compacted away anyway.)
				if err := os.Truncate(path, int64(good)); err != nil {
					return nil, fmt.Errorf("journal: truncating torn tail of %s: %w", name, err)
				}
			}
		}
		for _, r := range recs {
			j.apply(r)
			if r.Kind.terminal() {
				terminals++
			}
		}
		j.stats.Replayed += len(recs)
		mReplayed.Add(int64(len(recs)))
		if seq := segmentSeq(name); seq > j.seq {
			j.seq = seq
		}
	}

	if len(names) > 1 || terminals > 0 {
		// Startup compaction: rewrite the live set into a fresh
		// segment and drop everything terminal.
		if err := j.compactLocked(); err != nil {
			return nil, err
		}
	} else if len(names) == 1 && lastGood >= headerLen {
		f, err := os.OpenFile(filepath.Join(dir, names[0]), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("journal: opening segment: %w", err)
		}
		j.f = f
		if fi, err := f.Stat(); err == nil {
			j.size = fi.Size()
		}
	} else if len(names) == 1 {
		// The lone segment's header itself is missing or mangled (the
		// whole file was garbage): rewrite it fresh instead of
		// appending records no replay could ever find.
		if err := j.startSegmentLocked(); err != nil {
			return nil, err
		}
	} else {
		j.seq = 1
		if err := j.startSegmentLocked(); err != nil {
			return nil, err
		}
	}
	return j, nil
}

// Append durably writes one record: encode, write, fsync, then fold it
// into the in-memory live set. When the active segment has outgrown
// SegmentBytes the journal compacts afterwards. An error means the
// record may not be durable; the in-memory state still reflects it so
// a degraded journal keeps tracking lifecycle correctly.
func (j *Journal) Append(r Record) error {
	if !r.Kind.valid() {
		return fmt.Errorf("journal: append: invalid kind %d", r.Kind)
	}
	if r.JobID == "" {
		return fmt.Errorf("journal: append: empty job id")
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("journal: append %s for %s: journal closed", r.Kind, r.JobID)
	}
	mRecords.With(r.Kind.String()).Inc()
	err := j.writeLocked(r)
	j.apply(r)
	if err != nil {
		j.stats.AppendErrors++
		mAppendErrors.Inc()
		return err
	}
	if j.size > j.opts.SegmentBytes {
		if cerr := j.compactLocked(); cerr != nil {
			return cerr
		}
	}
	return nil
}

// writeLocked encodes and durably writes one record to the active
// segment, truncating back to the pre-write size if the write fails
// partway so a half-record never precedes a later good one.
func (j *Journal) writeLocked(r Record) error {
	if err := faultinject.Fire(faultinject.SiteJournalAppend); err != nil {
		return fmt.Errorf("journal: append %s for %s: %w", r.Kind, r.JobID, err)
	}
	buf := encodeRecord(r)
	n, err := j.f.Write(buf)
	if err != nil {
		if n > 0 {
			j.f.Truncate(j.size)
		}
		return fmt.Errorf("journal: append %s for %s: %w", r.Kind, r.JobID, err)
	}
	j.size += int64(n)
	if serr := faultinject.Fire(faultinject.SiteJournalSync); serr != nil {
		return fmt.Errorf("journal: sync after %s for %s: %w", r.Kind, r.JobID, serr)
	}
	if !j.opts.NoSync {
		if serr := j.f.Sync(); serr != nil {
			return fmt.Errorf("journal: sync after %s for %s: %w", r.Kind, r.JobID, serr)
		}
	}
	return nil
}

// apply folds a record into the in-memory job state.
func (j *Journal) apply(r Record) {
	st, ok := j.state[r.JobID]
	switch r.Kind {
	case Submitted:
		if !ok {
			st = &jobState{seq: j.order}
			j.order++
			j.state[r.JobID] = st
		}
		st.submitted = r
		if r.Attempt > st.attempts {
			st.attempts = r.Attempt
		}
		st.terminal = false
	case Started:
		if ok {
			if r.Attempt > st.attempts {
				st.attempts = r.Attempt
			} else {
				st.attempts++
			}
		}
	case Requeued:
		// Stays live; nothing to update.
	case Completed, Failed, Cancelled:
		if ok {
			st.terminal = true
		}
	}
}

// Pending returns the live jobs — submitted (or requeued) with no
// terminal record — in submission order. Each returned Record is the
// job's Submitted record with Attempt raised to the number of Started
// records replayed, so a restart can count prior attempts against the
// retry budget.
func (j *Journal) Pending() []Record {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.pendingLocked()
}

func (j *Journal) pendingLocked() []Record {
	live := make([]*jobState, 0, len(j.state))
	for _, st := range j.state {
		if !st.terminal && st.submitted.Kind == Submitted {
			live = append(live, st)
		}
	}
	sort.Slice(live, func(a, b int) bool { return live[a].seq < live[b].seq })
	out := make([]Record, len(live))
	for i, st := range live {
		r := st.submitted
		r.Attempt = st.attempts
		out[i] = r
	}
	return out
}

// Stats snapshots the journal's replay and lifetime counters.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.stats
}

// Close syncs and closes the active segment. Appending to a closed
// journal errors; Close itself is idempotent.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	if j.f == nil {
		return nil
	}
	var err error
	if !j.opts.NoSync {
		err = j.f.Sync()
	}
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// compactLocked rewrites the live job set into a fresh segment and
// deletes every older one. The new segment is synced before the old
// segments go away, so a crash at any point leaves a replayable
// journal (at worst both generations exist and replay folds them).
func (j *Journal) compactLocked() error {
	j.seq++
	old := j.f
	prevSize := j.size
	if err := j.startSegmentLocked(); err != nil {
		j.f = old
		j.size = prevSize
		j.seq--
		return err
	}
	for _, r := range j.pendingLocked() {
		if err := j.writeLocked(r); err != nil {
			return err
		}
	}
	if !j.opts.NoSync {
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("journal: compact sync: %w", err)
		}
	}
	if old != nil {
		old.Close()
	}
	// Drop every job that only existed as garbage, then the old files.
	for id, st := range j.state {
		if st.terminal {
			delete(j.state, id)
		}
	}
	names, err := segmentNames(j.dir)
	if err == nil {
		active := segmentName(j.seq)
		for _, name := range names {
			if name != active {
				os.Remove(filepath.Join(j.dir, name))
			}
		}
	}
	j.stats.Compactions++
	mCompactions.Inc()
	return nil
}

// startSegmentLocked creates the segment file for the current seq and
// writes its header.
func (j *Journal) startSegmentLocked() error {
	f, err := os.OpenFile(filepath.Join(j.dir, segmentName(j.seq)),
		os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: creating segment: %w", err)
	}
	hdr := append([]byte(segMagic), segVersion)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return fmt.Errorf("journal: segment header: %w", err)
	}
	j.f = f
	j.size = int64(len(hdr))
	return nil
}

func segmentName(seq int64) string { return fmt.Sprintf("journal-%08d.pjrn", seq) }

// segmentSeq parses the sequence number out of a segment file name
// (0 when the name does not match).
func segmentSeq(name string) int64 {
	var seq int64
	if _, err := fmt.Sscanf(name, "journal-%d.pjrn", &seq); err != nil {
		return 0
	}
	return seq
}

// segmentNames lists the segment files under dir in sequence order.
func segmentNames(dir string) ([]string, error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("journal: dir: %w", err)
	}
	var names []string
	for _, de := range des {
		if de.IsDir() {
			continue
		}
		if segmentSeq(de.Name()) > 0 && filepath.Ext(de.Name()) == ".pjrn" {
			names = append(names, de.Name())
		}
	}
	sort.Slice(names, func(a, b int) bool { return segmentSeq(names[a]) < segmentSeq(names[b]) })
	return names, nil
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// encodeRecord frames one record: uvarint payload length, payload,
// CRC-32C of the payload (little-endian).
func encodeRecord(r Record) []byte {
	payload := make([]byte, 0, 16+len(r.JobID)+len(r.Key)+len(r.Note)+len(r.Blob))
	payload = append(payload, byte(r.Kind))
	payload = wire.AppendString(payload, r.JobID)
	payload = wire.AppendString(payload, r.Key)
	payload = binary.AppendUvarint(payload, uint64(r.Attempt))
	payload = wire.AppendString(payload, r.Note)
	payload = wire.AppendBytes(payload, r.Blob)

	buf := make([]byte, 0, len(payload)+9)
	buf = binary.AppendUvarint(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, crcTable))
	return buf
}

// parseSegment decodes a segment's intact record prefix. It returns
// the decoded records and the byte offset just past the last intact
// record; everything after that offset is a torn or corrupt tail the
// caller drops. A bad header yields (nil, 0): the whole file is
// garbage.
func parseSegment(data []byte) (recs []Record, good int) {
	if len(data) < headerLen || string(data[:len(segMagic)]) != segMagic ||
		data[len(segMagic)] != segVersion {
		return nil, 0
	}
	off := headerLen
	for off < len(data) {
		n, w := binary.Uvarint(data[off:])
		if w <= 0 || n > uint64(len(data)-off-w) || uint64(len(data)-off-w)-n < 4 {
			return recs, off // torn length or impossible payload
		}
		payload := data[off+w : off+w+int(n)]
		crcOff := off + w + int(n)
		want := binary.LittleEndian.Uint32(data[crcOff : crcOff+4])
		if crc32.Checksum(payload, crcTable) != want {
			return recs, off // corrupt record
		}
		if err := faultinject.Fire(faultinject.SiteJournalReplay); err != nil {
			return recs, off // injected replay-time corruption
		}
		r, ok := decodePayload(payload)
		if !ok {
			return recs, off
		}
		recs = append(recs, r)
		off = crcOff + 4
	}
	return recs, off
}

// decodePayload decodes one CRC-verified record payload. A CRC match
// makes malformed payloads unlikely, but replay still bounds every
// length against the remaining bytes so hand-corrupted (or fuzzed)
// files can never over-allocate.
func decodePayload(p []byte) (Record, bool) {
	d := wire.NewReader("journal: record", p)
	r := Record{Kind: Kind(d.Byte())}
	r.JobID = d.String()
	r.Key = d.String()
	r.Attempt = int(d.Uvarint())
	r.Note = d.String()
	r.Blob = d.Bytes()
	if d.Done() != nil || !r.Kind.valid() || r.JobID == "" {
		return Record{}, false
	}
	if len(r.Blob) == 0 {
		r.Blob = nil
	}
	return r, true
}
