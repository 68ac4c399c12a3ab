package certdir

import (
	"bufio"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cert"
	"repro/internal/sexp"
)

// The write-ahead log makes a directory survive restarts: every
// accepted publish and every removal is appended as one framed
// S-expression (sexp.AppendFrame: length prefix + CRC32 + canonical
// payload) before the mutation is acknowledged, and OpenDurable
// replays the log into a fresh Store on startup. Three record shapes
// appear on disk:
//
//	(wal-publish <signed-certificate proof>)
//	(wal-remove <cert hash> <expiry unix seconds, "0" if unbounded>)
//	(wal-event <cursor token> <kind> <cert hash>)
//
// A crash can tear at most the final record of a segment; replay
// truncates a torn tail away, and everything acknowledged before the
// crash is intact. Removal records carry the certificate's expiry so
// the tombstone that stops gossip from resurrecting a retracted
// delegation (see Replicator) survives restarts and compactions until
// the certificate would have expired anyway. Event records mirror the
// EventLog tail so subscriber cursors stay valid across a restart.
//
// # Segments
//
// The log is a sequence of numbered segment files
// (certdir-00000001.wal, certdir-00000002.wal, ...): appends go to the
// highest-numbered (active) segment, and when it reaches the
// configured size the segment is sealed and a new one started. Record
// order across the log is segment order — a record in segment k
// happened before every record in segment k+1 — so replay walks the
// segments in ascending id order.
//
// Sealing is what makes compaction incremental: a sealed segment's
// records can only *die* (a certificate is removed, a tombstone
// expires, an event falls off the retained ring — each of which
// appends its own record to the active segment), never gain liveness,
// so a sealed segment can be rewritten down to just its live records
// without any coordination with concurrent appends. The Store tracks
// per-segment live-record counts and rewrites only segments whose live
// ratio falls below a threshold (MaybeCompactWAL), instead of the
// whole log. Each rewrite keeps today's crash discipline: temp file,
// fsync, atomic rename, directory sync.
//
// Segments are the only layout. A data directory holding a single-file
// certdir.wal — what releases before segmentation wrote — is refused
// at open (refuseLegacyWAL): its records would otherwise be silently
// ignored and the directory would come up empty.

// Wire tags of the WAL record shapes.
const (
	walTagPublish = "wal-publish"
	walTagRemove  = "wal-remove"
	walTagEvent   = "wal-event"
)

// DefaultSegmentBytes is the rotation threshold when WALOptions does
// not set one: big enough that a segment amortizes its per-file cost
// over thousands of records, small enough that one rewrite is a few
// milliseconds of I/O.
const DefaultSegmentBytes = 4 << 20

// DefaultCompactThreshold is the live-ratio below which a sealed
// segment is rewritten by MaybeCompactWAL: at 0.5 a segment is
// compacted once most of it is dead, so compaction I/O is always
// reclaiming at least as many bytes as it writes.
const DefaultCompactThreshold = 0.5

// WALOptions tunes the segmented log; the zero value means defaults.
type WALOptions struct {
	// SegmentBytes is the size at which the active segment is sealed
	// and a new one started (-wal-segment-bytes).
	SegmentBytes int64
	// CompactThreshold is the live-record ratio below which a sealed
	// segment is rewritten (-compact-threshold).
	CompactThreshold float64
}

func (o WALOptions) withDefaults() WALOptions {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	if o.CompactThreshold <= 0 {
		o.CompactThreshold = DefaultCompactThreshold
	}
	return o
}

// walSegmentName is the file name of segment id.
func walSegmentName(id uint64) string {
	return fmt.Sprintf("certdir-%08d.wal", id)
}

// parseSegmentName extracts the id from a segment file name.
func parseSegmentName(name string) (uint64, bool) {
	const prefix, suffix = "certdir-", ".wal"
	if len(name) <= len(prefix)+len(suffix) ||
		name[:len(prefix)] != prefix || name[len(name)-len(suffix):] != suffix {
		return 0, false
	}
	id, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 10, 64)
	if err != nil || id == 0 {
		return 0, false
	}
	return id, true
}

// listSegments returns the segment ids present in dir, ascending.
func listSegments(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("certdir: wal dir list: %w", err)
	}
	var ids []uint64
	for _, e := range ents {
		if id, ok := parseSegmentName(e.Name()); ok {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, nil
}

// refuseLegacyWAL fails the open of a data directory that holds a
// pre-segmentation single-file log. Nothing reads that name any more,
// so opening past it would acknowledge an empty directory while the
// operator's delegations sit unread beside the new segments.
// OpenWALOpts calls it before it creates or truncates anything, which
// covers OpenDurable too: replay only reads.
func refuseLegacyWAL(dir string) error {
	legacy := filepath.Join(dir, "certdir.wal")
	if _, err := os.Stat(legacy); err == nil {
		return fmt.Errorf("certdir: %s is a single-file log this release does not read; rename it to %s (the framing is unchanged) or move it away",
			legacy, walSegmentName(1))
	} else if !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("certdir: wal dir: %w", err)
	}
	return nil
}

// SyncPolicy selects when the WAL forces appended records to stable
// storage. The choice trades publish latency against the crash window:
// see docs/OPERATIONS.md for the operator guidance.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append: an acknowledged publish
	// survives an immediate power cut. The default.
	SyncAlways SyncPolicy = iota
	// SyncInterval performs no per-append fsync; the owner calls Sync
	// on a timer (cmd/sf-certd does, flag -fsync-every). A crash can
	// lose up to one interval of acknowledged records — never corrupt
	// older ones.
	SyncInterval
	// SyncNever leaves flushing entirely to the operating system.
	// Benchmarks use it to isolate the in-memory cost of logging.
	SyncNever
)

// ParseSyncPolicy maps the -fsync flag values ("always", "interval",
// "never") onto a SyncPolicy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("certdir: unknown fsync policy %q (want always, interval, or never)", s)
}

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// segmentMeta is the WAL's bookkeeping for one segment file. records
// is the total frame count (live or dead) when known, -1 when the
// segment predates this process and was opened without replay; the
// live-ratio compactor skips unknowns (a forced CompactWAL still
// rewrites them).
type segmentMeta struct {
	size    int64
	records int64
}

// WAL is the segmented append log backing a durable Store. All methods
// are safe for concurrent use. Construct through OpenDurable (which
// also replays), or OpenWALOpts for direct control in tests and tools.
type WAL struct {
	mu           sync.Mutex
	dir          string
	policy       SyncPolicy
	segmentBytes int64
	active       uint64 // highest segment id; the one taking appends
	f            *os.File
	segs         map[uint64]*segmentMeta

	appends     atomic.Int64
	syncs       atomic.Int64
	compactions atomic.Int64
	rotations   atomic.Int64
	size        atomic.Int64 // total bytes across all segments
}

// WALStats is a snapshot of the log's counters for the stats endpoint.
type WALStats struct {
	Path        string // active segment file
	SizeBytes   int64  // total log size across segments
	Segments    int    // segment file count
	Appends     int64  // records appended since open
	Syncs       int64  // explicit fsyncs issued
	Compactions int64  // compaction passes (forced or threshold)
	Rotations   int64  // active-segment seals
}

// OpenWALOpts opens the segmented log in dir for appending, without
// replaying it. truncateAt >= 0 cuts the LAST segment to that many
// bytes — OpenDurable uses it to drop a torn tail.
func OpenWALOpts(dir string, policy SyncPolicy, truncateAt int64, opts WALOptions) (*WAL, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("certdir: wal dir: %w", err)
	}
	if err := refuseLegacyWAL(dir); err != nil {
		return nil, err
	}
	// A crash during a segment rewrite can leave a temp file behind;
	// the rename never happened, so the original segment is intact and
	// the temp is garbage.
	if tmps, err := filepath.Glob(filepath.Join(dir, "*.compact")); err == nil {
		for _, p := range tmps {
			os.Remove(p)
		}
	}
	ids, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	if len(ids) == 0 {
		ids = []uint64{1}
	}
	last := ids[len(ids)-1]
	if truncateAt >= 0 {
		if err := os.Truncate(filepath.Join(dir, walSegmentName(last)), truncateAt); err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("certdir: wal truncate: %w", err)
		}
	}
	f, err := os.OpenFile(filepath.Join(dir, walSegmentName(last)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("certdir: wal open: %w", err)
	}
	// Persist the directory entry of a freshly created segment: fsync
	// on the file alone does not make its name durable.
	if err := syncDir(dir); err != nil {
		f.Close()
		return nil, err
	}
	w := &WAL{
		dir:          dir,
		policy:       policy,
		segmentBytes: opts.SegmentBytes,
		active:       last,
		f:            f,
		segs:         make(map[uint64]*segmentMeta, len(ids)),
	}
	var total int64
	for _, id := range ids {
		var size int64
		if st, err := os.Stat(filepath.Join(dir, walSegmentName(id))); err == nil {
			size = st.Size()
		} else if !errors.Is(err, os.ErrNotExist) {
			f.Close()
			return nil, fmt.Errorf("certdir: wal stat: %w", err)
		}
		m := &segmentMeta{size: size, records: -1}
		if size == 0 {
			m.records = 0
		}
		w.segs[id] = m
		total += size
	}
	w.size.Store(total)
	return w, nil
}

// Path returns the active segment's file path.
func (w *WAL) Path() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return filepath.Join(w.dir, walSegmentName(w.active))
}

// syncDir fsyncs a directory so renames and creations inside it are
// crash-durable, not just the file contents they point at.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("certdir: wal dir sync: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("certdir: wal dir sync: %w", err)
	}
	return nil
}

// appendRecord frames and writes one record under the chosen sync
// policy, sealing the active segment first when it is full, and
// returns the segment id the record landed in. An error means the
// record may not be durable and the caller must not apply (or
// acknowledge) the mutation it describes.
func (w *WAL) appendRecord(e sexp.Sexp) (uint64, error) {
	buf := sexp.AppendFrame(nil, e)
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return 0, fmt.Errorf("certdir: wal is closed")
	}
	if w.segs[w.active].size >= w.segmentBytes {
		if err := w.rotateLocked(); err != nil {
			return 0, err
		}
	}
	if _, err := w.f.Write(buf); err != nil {
		return 0, fmt.Errorf("certdir: wal append: %w", err)
	}
	m := w.segs[w.active]
	m.size += int64(len(buf))
	if m.records >= 0 {
		m.records++
	}
	w.appends.Add(1)
	w.size.Add(int64(len(buf)))
	if w.policy == SyncAlways {
		w.syncs.Add(1)
		if err := w.f.Sync(); err != nil {
			return 0, fmt.Errorf("certdir: wal sync: %w", err)
		}
	}
	return w.active, nil
}

// rotateLocked seals the active segment and starts the next one.
// No-op on an empty active segment. Caller holds w.mu.
func (w *WAL) rotateLocked() error {
	if w.segs[w.active].size == 0 {
		return nil
	}
	// Flush the sealed segment before moving on: from here it is only
	// ever rewritten whole, never appended to.
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("certdir: wal rotate sync: %w", err)
	}
	next := w.active + 1
	f, err := os.OpenFile(filepath.Join(w.dir, walSegmentName(next)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("certdir: wal rotate: %w", err)
	}
	if err := syncDir(w.dir); err != nil {
		f.Close()
		return err
	}
	w.f.Close()
	w.f = f
	w.active = next
	w.segs[next] = &segmentMeta{records: 0}
	w.rotations.Add(1)
	return nil
}

// rotateIfNonEmpty seals the active segment if it holds anything;
// forced compaction uses it so the whole log becomes rewritable.
func (w *WAL) rotateIfNonEmpty() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return fmt.Errorf("certdir: wal is closed")
	}
	return w.rotateLocked()
}

// AppendPublish logs an accepted publish, returning the segment the
// record landed in.
func (w *WAL) AppendPublish(c *cert.Cert) (uint64, error) {
	return w.appendRecord(publishRecord(c))
}

// AppendRemove logs a removal together with the removed certificate's
// expiry (zero time for unbounded), which bounds the tombstone's life.
func (w *WAL) AppendRemove(hash []byte, expiry time.Time) (uint64, error) {
	return w.appendRecord(removeRecord(hash, expiry))
}

// AppendEvent logs one EventLog entry (cursor token, kind, hash) so
// subscriber cursors survive a restart.
func (w *WAL) AppendEvent(token uint64, kind string, hash []byte) (uint64, error) {
	return w.appendRecord(eventRecord(token, kind, hash))
}

// The publish and remove frames are shared by the WAL and the snapshot
// stream; these four functions are the only code that knows their
// layout. The decoders deep-copy what they return, so a caller may
// recycle the buffer the frame was parsed from.

func publishRecord(c *cert.Cert) sexp.Sexp {
	return sexp.List(sexp.String(walTagPublish), c.Sexp())
}

func removeRecord(hash []byte, expiry time.Time) sexp.Sexp {
	exp := "0"
	if !expiry.IsZero() {
		exp = strconv.FormatInt(expiry.Unix(), 10)
	}
	return sexp.List(sexp.String(walTagRemove), sexp.Atom(hash), sexp.String(exp))
}

// decodePublish extracts the certificate from a wal-publish frame. The
// signature is NOT checked here; indexing verifies.
func decodePublish(e sexp.Sexp) (*cert.Cert, error) {
	if e.Tag() != walTagPublish || e.Len() != 2 {
		return nil, fmt.Errorf("certdir: bad publish frame %s", e)
	}
	c, err := certFromSexp(e.Nth(1))
	if err != nil {
		return nil, fmt.Errorf("certdir: publish frame: %w", err)
	}
	return c, nil
}

// decodeRemove extracts the retracted certificate's hash and expiry
// (zero for unbounded) from a wal-remove frame. The hash must be a
// full content hash and the expiry an integer: read leniently, a
// garbled expiry would turn into "never expires" and the frame into a
// tombstone no sweep ever reclaims.
func decodeRemove(e sexp.Sexp) (hash []byte, expiry time.Time, err error) {
	if e.Tag() != walTagRemove || e.Len() != 3 || !e.Nth(1).IsAtom() || !e.Nth(2).IsAtom() {
		return nil, expiry, fmt.Errorf("certdir: bad remove frame %s", e)
	}
	if len(e.Nth(1).Bytes()) != sha256.Size {
		return nil, expiry, fmt.Errorf("certdir: remove frame hash is %d bytes, want %d", len(e.Nth(1).Bytes()), sha256.Size)
	}
	sec, err := strconv.ParseInt(e.Nth(2).Text(), 10, 64)
	if err != nil {
		return nil, expiry, fmt.Errorf("certdir: remove frame expiry %q is not an integer", e.Nth(2).Text())
	}
	if sec != 0 {
		expiry = time.Unix(sec, 0)
	}
	return append([]byte(nil), e.Nth(1).Bytes()...), expiry, nil
}

func eventRecord(token uint64, kind string, hash []byte) sexp.Sexp {
	return sexp.List(sexp.String(walTagEvent),
		sexp.String(strconv.FormatUint(token, 10)), sexp.String(kind), sexp.Atom(hash))
}

// Sync forces buffered records to stable storage. Under SyncInterval
// the owner calls it on a timer; under SyncAlways it is a no-op beyond
// what every append already did.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	w.syncs.Add(1)
	return w.f.Sync()
}

// Close syncs and closes the log. Further appends fail.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

// segmentInfo is a point-in-time view of one segment for the Store's
// compaction planner.
type segmentInfo struct {
	id      uint64
	size    int64
	records int64 // -1 when unknown
}

// sealedSegments lists every non-active segment, ascending.
func (w *WAL) sealedSegments() []segmentInfo {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]segmentInfo, 0, len(w.segs))
	for id, m := range w.segs {
		if id != w.active {
			out = append(out, segmentInfo{id: id, size: m.size, records: m.records})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// activeInfo reports the active segment's id and known record count
// (-1 when opened without replay).
func (w *WAL) activeInfo() (id uint64, records int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.active, w.segs[w.active].records
}

// setReplayRecords installs per-segment total frame counts discovered
// during replay, making those segments eligible for threshold
// compaction.
func (w *WAL) setReplayRecords(counts map[uint64]int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for id, n := range counts {
		if m, ok := w.segs[id]; ok {
			m.records = n
		}
	}
}

// noteCompaction counts one compaction pass (however many segments it
// rewrote).
func (w *WAL) noteCompaction() { w.compactions.Add(1) }

// RewriteSegment atomically replaces a sealed segment with exactly the
// given frames (its surviving live records), or removes the file when
// none survive. The rewrite goes to a temp file first and replaces the
// segment by rename, so a crash during compaction leaves either the
// old segment or the new one, never a mix. The active segment cannot
// be rewritten — seal it first (rotateIfNonEmpty).
func (w *WAL) RewriteSegment(seg uint64, frames []sexp.Sexp) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return fmt.Errorf("certdir: wal is closed")
	}
	if seg == w.active {
		return fmt.Errorf("certdir: cannot rewrite active segment %d", seg)
	}
	m, ok := w.segs[seg]
	if !ok {
		return nil // already compacted away
	}
	path := filepath.Join(w.dir, walSegmentName(seg))
	if len(frames) == 0 {
		if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("certdir: wal segment remove: %w", err)
		}
		if err := syncDir(w.dir); err != nil {
			return err
		}
		w.size.Add(-m.size)
		delete(w.segs, seg)
		return nil
	}
	tmpPath := path + ".compact"
	tmp, err := os.Create(tmpPath)
	if err != nil {
		return fmt.Errorf("certdir: wal rewrite: %w", err)
	}
	bw := bufio.NewWriter(tmp)
	var size int64
	for _, e := range frames {
		buf := sexp.AppendFrame(nil, e)
		size += int64(len(buf))
		if _, err := bw.Write(buf); err != nil {
			tmp.Close()
			os.Remove(tmpPath)
			return fmt.Errorf("certdir: wal rewrite: %w", err)
		}
	}
	if err := bw.Flush(); err == nil {
		err = tmp.Sync()
	}
	if err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return fmt.Errorf("certdir: wal rewrite: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpPath)
		return fmt.Errorf("certdir: wal rewrite: %w", err)
	}
	if err := os.Rename(tmpPath, path); err != nil {
		os.Remove(tmpPath)
		return fmt.Errorf("certdir: wal rewrite: %w", err)
	}
	// The rename is not durable until the directory is synced: without
	// this, a power cut could resurrect the pre-compaction segment and
	// with it records the rewrite deliberately dropped.
	if err := syncDir(w.dir); err != nil {
		return err
	}
	w.size.Add(size - m.size)
	m.size = size
	m.records = int64(len(frames))
	return nil
}

// Stats returns a snapshot of the log counters.
func (w *WAL) Stats() WALStats {
	w.mu.Lock()
	path := filepath.Join(w.dir, walSegmentName(w.active))
	segments := len(w.segs)
	w.mu.Unlock()
	return WALStats{
		Path:        path,
		SizeBytes:   w.size.Load(),
		Segments:    segments,
		Appends:     w.appends.Load(),
		Syncs:       w.syncs.Load(),
		Compactions: w.compactions.Load(),
		Rotations:   w.rotations.Load(),
	}
}

// RecoveryStats reports what OpenDurable found in the log.
type RecoveryStats struct {
	// Replayed counts records applied to the store: certificates
	// re-indexed and removals (with their tombstones) re-applied.
	Replayed int
	// Dropped counts records the replay skipped: certificates that
	// expired since they were logged, duplicates, and records that no
	// longer verify. Dropping is expected hygiene, not data loss.
	Dropped int
	// Events counts EventLog entries restored from event records.
	Events int
	// Torn reports that a segment ended mid-record — the signature of
	// a crash during an append or a rewrite. A torn tail in the last
	// segment is truncated away; a torn earlier segment is compacted.
	Torn bool
	// Compacted reports that the log was rewritten after replay
	// because it contained torn or dead records.
	Compacted bool
}

// OpenDurable opens a WAL-backed directory rooted at dir with default
// segment options: it replays the segments (creating the first as
// needed) into a fresh Store with n shards, truncates any torn tail,
// attaches the log so subsequent publishes and removals are journaled,
// and compacts the log when the replay found anything dead. Traffic
// counters are reset after replay so Stats reflects traffic since this
// open, not since the log began.
func OpenDurable(dir string, n int, policy SyncPolicy, now time.Time) (*Store, RecoveryStats, error) {
	return OpenDurableOpts(dir, n, policy, now, WALOptions{})
}

// OpenDurableOpts is OpenDurable with explicit segment options.
func OpenDurableOpts(dir string, n int, policy SyncPolicy, now time.Time, opts WALOptions) (*Store, RecoveryStats, error) {
	opts = opts.withDefaults()
	st := NewStore(n)
	st.compactThreshold = opts.CompactThreshold
	var rec RecoveryStats
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, rec, fmt.Errorf("certdir: wal dir: %w", err)
	}
	ids, err := listSegments(dir)
	if err != nil {
		return nil, rec, err
	}
	truncateAt := int64(-1)
	counts := make(map[uint64]int64, len(ids))
	for i, id := range ids {
		good, frames, torn, err := replaySegment(st, filepath.Join(dir, walSegmentName(id)), id, now, &rec)
		if err != nil {
			return nil, rec, err
		}
		counts[id] = frames
		if torn {
			rec.Torn = true
			if i == len(ids)-1 {
				truncateAt = good
			}
			// A tear in an earlier segment cannot be truncated away
			// (later segments hold acknowledged records); the
			// post-replay compaction rewrites the damaged segment from
			// the replayed state instead.
		}
	}
	w, err := OpenWALOpts(dir, policy, truncateAt, opts)
	if err != nil {
		return nil, rec, err
	}
	w.setReplayRecords(counts)
	st.attachWAL(w)
	st.resetStats()
	if rec.Torn || rec.Dropped > 0 {
		if err := st.CompactWAL(); err != nil {
			return nil, rec, err
		}
		rec.Compacted = true
	}
	return st, rec, nil
}

// replaySegment streams one segment into the store, returning the byte
// offset of the last good frame, the frame count, and whether a torn
// tail was found. The store must not have a WAL attached yet: replay
// re-applies history, it does not write it.
//
// Records stream through one sexp.FrameReader (a reusable payload
// buffer and parse arena instead of per-record allocations; the typed
// decoders copy what they keep, so recycling the arena is safe), and
// consecutive publishes are indexed in verified batches
// (Store.indexVerified). A removal or event flushes the pending batch
// first — log order is publish order.
func replaySegment(st *Store, path string, seg uint64, now time.Time, rec *RecoveryStats) (good, frames int64, torn bool, err error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, 0, false, nil
	}
	if err != nil {
		return 0, 0, false, fmt.Errorf("certdir: wal replay: %w", err)
	}
	defer f.Close()
	r := bufio.NewReader(f)
	var fr sexp.FrameReader
	var batch []*cert.Cert
	flush := func() {
		// Expired-in-the-meantime certificates, duplicates and bad
		// signatures are dropped here and compacted away.
		added, _ := st.indexVerified(batch, now, false, seg)
		rec.Replayed += added
		rec.Dropped += len(batch) - added
		batch = batch[:0]
	}
	for {
		e, n, err := fr.Next(r)
		if err == io.EOF {
			flush()
			return good, frames, false, nil
		}
		if errors.Is(err, sexp.ErrFrameCorrupt) {
			flush()
			return good, frames, true, nil
		}
		if err != nil {
			flush()
			return good, frames, false, fmt.Errorf("certdir: wal replay: %w", err)
		}
		good += int64(n)
		frames++
		switch e.Tag() {
		case walTagPublish:
			c, err := decodePublish(e)
			if err != nil {
				rec.Dropped++
				continue
			}
			batch = append(batch, c)
			if len(batch) >= verifyBatch {
				flush()
			}
		case walTagRemove:
			flush() // removals apply after the publishes logged before them
			hash, expiry, err := decodeRemove(e)
			if err != nil {
				rec.Dropped++
				continue
			}
			st.replayRemove(hash, expiry, now, seg)
			rec.Replayed++
		case walTagEvent:
			flush() // events observe the mutations logged before them
			if e.Len() != 4 || !e.Nth(3).IsAtom() {
				rec.Dropped++
				continue
			}
			token, terr := strconv.ParseUint(e.Nth(1).Text(), 10, 64)
			kind := e.Nth(2).Text()
			if terr != nil || token == 0 || (kind != EventRemove && kind != EventRevoke) {
				rec.Dropped++
				continue
			}
			st.restoreEvent(token, kind, e.Nth(3).Bytes(), seg)
			rec.Events++
		default:
			rec.Dropped++
		}
	}
}
