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
// accepted publish, removal and newly installed CRL is appended as one
// framed S-expression (sexp.AppendFrame: length prefix + CRC32 +
// canonical payload) before the mutation is acknowledged, and
// OpenDurable replays the log into a fresh Store on startup. These
// record shapes are the only encoding of directory state, on disk and
// on the wire (a snapshot is a base segment with a trailer, see
// snapshot.go):
//
//	(wal-base)
//	(wal-publish <signed-certificate proof>)
//	(wal-remove <cert hash> <expiry unix seconds, "0" if unbounded>)
//	(wal-crl <crl>)
//	(wal-event <cursor token> <kind> <cert hash>)
//	(wal-end (count <records>))
//
// A crash can tear at most the final record of a segment; replay
// truncates a torn tail away, and everything acknowledged before the
// crash is intact. Removal records carry the certificate's expiry so
// the tombstone that stops gossip from resurrecting a retracted
// delegation (see Replicator) survives restarts and compactions until
// the certificate would have expired anyway. CRL records keep a
// directory's revocations, and with them its control-plane lockouts,
// across a restart until the list lapses; replay verifies each one.
// Event records mirror the EventLog tail so subscriber cursors stay
// valid across a restart. Only a snapshot carries the (wal-end)
// trailer; a segment ends without one.
//
// # Base and active segments
//
// The log lives in numbered segment files (certdir-00000001.wal, ...):
// an optional base segment, which opens with a (wal-base) frame and
// holds exactly the live records at the moment it was cut, followed by
// the active segment that takes appends. Replay starts at the
// highest-numbered segment that opens with (wal-base) — or at the
// lowest segment when none does — and walks the rest in ascending id
// order.
//
// Compaction (Store.CompactWAL) is the only thing that starts a new
// segment. It seals the active segment and copies the live set at one
// instant, so every record belongs either to the new base or to the
// new active segment, never to both. Then, with no store lock held, it
// writes the base over the segment it just sealed (writeBase: temp
// file, fsync, rename, directory fsync). That rename is the one commit
// point: before it the old segments are the log, after it the new base
// and the active segment are, and the older segments the base
// supersedes are deleted (at open too, should a crash have left them
// behind, along with orphaned temps).
//
// Segments are the only layout. A data directory holding a single-file
// certdir.wal — what releases before segmentation wrote — is refused
// at open (refuseLegacyWAL): its records would otherwise be silently
// ignored and the directory would come up empty.

// Wire tags of the WAL record shapes.
const (
	walTagBase    = "wal-base"
	walTagPublish = "wal-publish"
	walTagRemove  = "wal-remove"
	walTagCRL     = "wal-crl"
	walTagEvent   = "wal-event"
	walTagEnd     = "wal-end"
)

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

// segmentPath is the path of segment id in dir.
func segmentPath(dir string, id uint64) string {
	return filepath.Join(dir, walSegmentName(id))
}

// refuseLegacyWAL fails the open of a data directory that holds a
// pre-segmentation single-file log. Nothing reads that name any more,
// so opening past it would acknowledge an empty directory while the
// operator's delegations sit unread beside the new segments.
// OpenDurable calls it before it creates, reads or deletes anything.
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

// WAL is the append log backing a durable Store: an optional base
// segment plus the active one. All methods are safe for concurrent
// use. OpenDurable constructs it after replaying the segments.
type WAL struct {
	mu      sync.Mutex
	dir     string
	policy  SyncPolicy
	active  uint64 // highest segment id; the one taking appends
	f       *os.File
	sizes   map[uint64]int64 // bytes per segment file
	records int64            // records in the log, live or dead

	appends     atomic.Int64
	syncs       atomic.Int64
	compactions atomic.Int64
}

// WALStats is a snapshot of the log's counters for the stats endpoint.
type WALStats struct {
	SizeBytes   int64 // total log size across segments
	Segments    int   // segment file count
	Appends     int64 // records appended since open
	Syncs       int64 // explicit fsyncs issued
	Compactions int64 // committed compactions
}

// openWAL opens the log for appending once OpenDurable has replayed
// segments ids (ascending, starting at the base; empty for a fresh
// directory) and counted records in them. truncateAt >= 0 cuts the
// last segment to that many bytes, dropping a torn tail.
func openWAL(dir string, policy SyncPolicy, ids []uint64, truncateAt, records int64) (*WAL, error) {
	if len(ids) == 0 {
		ids = []uint64{1}
	}
	last := ids[len(ids)-1]
	if truncateAt >= 0 {
		if err := os.Truncate(segmentPath(dir, last), truncateAt); err != nil {
			return nil, fmt.Errorf("certdir: wal truncate: %w", err)
		}
	}
	f, err := os.OpenFile(segmentPath(dir, last), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("certdir: wal open: %w", err)
	}
	// Persist the directory entry of a freshly created segment (and
	// OpenDurable's deletions): fsync on the file alone does not make its
	// name durable.
	if err := syncDir(dir); err != nil {
		f.Close()
		return nil, err
	}
	w := &WAL{dir: dir, policy: policy, active: last, f: f, sizes: make(map[uint64]int64, len(ids)), records: records}
	for _, id := range ids {
		st, err := os.Stat(segmentPath(dir, id))
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("certdir: wal stat: %w", err)
		}
		w.sizes[id] = st.Size()
	}
	return w, nil
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

// appendRecord frames and writes one record to the active segment
// under the chosen sync policy. An error means the record may not be
// durable and the caller must not apply (or acknowledge) the mutation
// it describes.
func (w *WAL) appendRecord(e sexp.Sexp) error {
	buf := sexp.AppendFrame(nil, e)
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return fmt.Errorf("certdir: wal is closed")
	}
	if _, err := w.f.Write(buf); err != nil {
		return fmt.Errorf("certdir: wal append: %w", err)
	}
	w.sizes[w.active] += int64(len(buf))
	w.records++
	w.appends.Add(1)
	if w.policy == SyncAlways {
		w.syncs.Add(1)
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("certdir: wal sync: %w", err)
		}
	}
	return nil
}

// seal ends the active segment and starts the next one, returning the
// sealed segment's id and the record count at the cut. The store calls
// it with every lock a journaling mutation holds, so no record lands
// on the wrong side of the cut.
func (w *WAL) seal() (sealed uint64, records int64, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return 0, 0, fmt.Errorf("certdir: wal is closed")
	}
	// Flush the sealed segment before moving on: no later Sync reaches
	// it, and records after the cut must not outlive records before it.
	if err := w.f.Sync(); err != nil {
		return 0, 0, fmt.Errorf("certdir: wal seal: %w", err)
	}
	next := w.active + 1
	f, err := os.OpenFile(segmentPath(w.dir, next), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return 0, 0, fmt.Errorf("certdir: wal seal: %w", err)
	}
	if err := syncDir(w.dir); err != nil {
		f.Close()
		return 0, 0, err
	}
	w.f.Close()
	w.f = f
	sealed, w.active = w.active, next
	w.sizes[next] = 0
	return sealed, w.records, nil
}

// commitBase makes frames the log's base: writeBase puts them over the
// sealed segment — the commit point — and every older segment is then
// deleted. cut is the record count seal reported; records appended
// since stay counted. Appends proceed meanwhile: they go to the active
// segment, which this never touches.
func (w *WAL) commitBase(sealed uint64, cut int64, frames []sexp.Sexp) error {
	size, err := writeBase(segmentPath(w.dir, sealed), frames)
	if err != nil {
		return fmt.Errorf("certdir: wal compact: %w", err)
	}
	var old []uint64
	w.mu.Lock()
	w.records += int64(len(frames)) - cut
	w.sizes[sealed] = size
	for id := range w.sizes {
		if id < sealed {
			old = append(old, id)
			delete(w.sizes, id)
		}
	}
	w.mu.Unlock()
	// A segment that fails to go is superseded all the same; the next
	// open deletes it.
	for _, id := range old {
		os.Remove(segmentPath(w.dir, id))
	}
	w.compactions.Add(1)
	return nil
}

// writeBase makes path a base — a (wal-base) frame, then frames — the
// one durable way: written to a temp file, fsynced, renamed over path,
// and the directory fsynced. A reader of path, or a crash, finds the
// old file or the new one, never part of one. Compaction and the
// snapshot artifact both write through it. Returns the bytes written.
func writeBase(path string, frames []sexp.Sexp) (size int64, err error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if size, err = writeFrames(bw, frames); err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return 0, err
	}
	// Until the directory is synced the rename may not survive a power
	// cut, and deleting what it supersedes would lose both.
	return size, syncDir(filepath.Dir(path))
}

// writeFrames writes a (wal-base) frame and then frames to w,
// returning the bytes written.
func writeFrames(w io.Writer, frames []sexp.Sexp) (size int64, err error) {
	var buf []byte
	for _, e := range append([]sexp.Sexp{baseRecord()}, frames...) {
		buf = sexp.AppendFrame(buf[:0], e)
		n, err := w.Write(buf)
		size += int64(n)
		if err != nil {
			return size, err
		}
	}
	return size, nil
}

// recordCount reports how many records the log holds, live or dead:
// those replayed at open or written by the last committed base, plus
// those appended since.
func (w *WAL) recordCount() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.records
}

// The functions below are the only code that knows the record
// layouts, which the WAL and the snapshot stream share. The decoders
// deep-copy what they return, so a caller may recycle the buffer the
// frame was parsed from.

func baseRecord() sexp.Sexp { return sexp.List(sexp.String(walTagBase)) }

// isBaseRecord reports whether e is the (wal-base) frame that opens a
// base segment.
func isBaseRecord(e sexp.Sexp) bool { return e.Tag() == walTagBase && e.Len() == 1 }

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

func crlRecord(rl *cert.RevocationList) sexp.Sexp {
	return sexp.List(sexp.String(walTagCRL), rl.Sexp())
}

// decodeCRL extracts the list from a wal-crl frame. The signature is
// NOT checked here; whoever installs the list verifies.
func decodeCRL(e sexp.Sexp) (*cert.RevocationList, error) {
	if e.Tag() != walTagCRL || e.Len() != 2 {
		return nil, fmt.Errorf("certdir: bad crl frame %s", e)
	}
	rl, err := cert.RevocationListFromSexp(e.Nth(1))
	if err != nil {
		return nil, fmt.Errorf("certdir: crl frame: %w", err)
	}
	return rl, nil
}

func endRecord(records int) sexp.Sexp {
	return sexp.List(sexp.String(walTagEnd),
		sexp.List(sexp.String("count"), sexp.String(strconv.Itoa(records))))
}

// decodeEnd extracts the record count from a wal-end trailer.
func decodeEnd(e sexp.Sexp) (int64, bool) {
	c := e.Child("count")
	if e.Len() != 2 || c == nil || c.Len() != 2 {
		return 0, false
	}
	n, err := strconv.ParseInt(c.Nth(1).Text(), 10, 64)
	return n, err == nil && n >= 0
}

func eventRecord(token uint64, kind string, hash []byte) sexp.Sexp {
	return sexp.List(sexp.String(walTagEvent),
		sexp.String(strconv.FormatUint(token, 10)), sexp.String(kind), sexp.Atom(hash))
}

// decodeEvent extracts the cursor token, kind and certificate hash
// from a wal-event frame. The token must carry both a boot nonce and a
// sequence number (see EventLog), and the kind must be one the log
// emits.
func decodeEvent(e sexp.Sexp) (token uint64, kind string, hash []byte, err error) {
	if e.Tag() != walTagEvent || e.Len() != 4 || !e.Nth(3).IsAtom() {
		return 0, "", nil, fmt.Errorf("certdir: bad event frame %s", e)
	}
	token, err = strconv.ParseUint(e.Nth(1).Text(), 10, 64)
	kind = e.Nth(2).Text()
	if err != nil || token>>cursorSeqBits == 0 || token&(1<<cursorSeqBits-1) == 0 ||
		(kind != EventRemove && kind != EventRevoke) {
		return 0, "", nil, fmt.Errorf("certdir: bad event frame %s", e)
	}
	return token, kind, append([]byte(nil), e.Nth(3).Bytes()...), nil
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

// Stats returns a snapshot of the log counters.
func (w *WAL) Stats() WALStats {
	w.mu.Lock()
	st := WALStats{Segments: len(w.sizes)}
	for _, n := range w.sizes {
		st.SizeBytes += n
	}
	w.mu.Unlock()
	st.Appends = w.appends.Load()
	st.Syncs = w.syncs.Load()
	st.Compactions = w.compactions.Load()
	return st
}

// RecoveryStats reports what OpenDurable found in the log.
type RecoveryStats struct {
	// Replayed counts records applied to the store: certificates
	// re-indexed, removals (with their tombstones) re-applied, and CRLs
	// kept (Store.CRLs).
	Replayed int
	// Dropped counts records the replay skipped: certificates and CRLs
	// that expired since they were logged, duplicates, and records that
	// no longer verify or do not decode. Dropping is expected hygiene, not
	// data loss.
	Dropped int
	// Events counts EventLog entries restored from event records.
	Events int
	// Torn reports that a segment ended mid-record — the signature of
	// a crash during an append. A torn tail in the last segment is
	// truncated away; a torn earlier segment is compacted.
	Torn bool
	// Compacted reports that the log was rewritten after replay
	// because it contained torn or dead records.
	Compacted bool
}

// OpenDurable opens a WAL-backed directory rooted at dir: it replays
// the log (from its base, if it has one) into a fresh Store with n
// shards, truncates any torn tail, attaches the log so subsequent
// publishes and removals are journaled, and compacts the log when the
// replay found anything torn or dead. Traffic counters are reset after
// replay so Stats reflects traffic since this open, not since the log
// began.
func OpenDurable(dir string, n int, policy SyncPolicy, now time.Time) (*Store, RecoveryStats, error) {
	st := NewStore(n)
	var rec RecoveryStats
	if err := refuseLegacyWAL(dir); err != nil {
		return nil, rec, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, rec, fmt.Errorf("certdir: wal dir: %w", err)
	}
	// A crash mid-compaction (or mid-snapshot write) leaves a *.tmp
	// behind; its rename never happened, so it was never the log.
	if tmps, err := filepath.Glob(filepath.Join(dir, "*.tmp")); err == nil {
		for _, p := range tmps {
			os.Remove(p)
		}
	}
	ids, err := listSegments(dir)
	if err != nil {
		return nil, rec, err
	}
	// Segments below the base were superseded when it was committed; a
	// crash before their deletion leaves them behind.
	base := baseIndex(dir, ids)
	for _, id := range ids[:base] {
		if err := os.Remove(segmentPath(dir, id)); err != nil {
			return nil, rec, fmt.Errorf("certdir: wal segment remove: %w", err)
		}
	}
	ids = ids[base:]
	truncateAt := int64(-1)
	var records int64
	for i, id := range ids {
		good, frames, torn, err := replaySegment(st, segmentPath(dir, id), now, &rec)
		if err != nil {
			return nil, rec, err
		}
		records += frames
		if torn {
			rec.Torn = true
			if i == len(ids)-1 {
				truncateAt = good
			}
			// A tear in an earlier segment cannot be truncated away
			// (later segments hold acknowledged records); the
			// post-replay compaction rewrites the log from the replayed
			// state instead.
		}
	}
	w, err := openWAL(dir, policy, ids, truncateAt, records)
	if err != nil {
		return nil, rec, err
	}
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

// baseIndex returns the index in ids of the highest-numbered segment
// that opens with a (wal-base) frame; 0 when none does.
func baseIndex(dir string, ids []uint64) int {
	for i := len(ids) - 1; i > 0; i-- {
		f, err := os.Open(segmentPath(dir, ids[i]))
		if err != nil {
			continue
		}
		var fr sexp.FrameReader
		e, _, err := fr.Next(f)
		f.Close()
		if err == nil && isBaseRecord(e) {
			return i
		}
	}
	return 0
}

// replaySegment streams one segment into the store, returning the byte
// offset of the last good frame, the record count (a leading
// (wal-base) frame is not a record), and whether a torn tail was
// found. The store must not have a WAL attached yet: replay re-applies
// history, it does not write it. A record that does not decode, or no
// longer applies (an expired certificate, a duplicate, a forged
// signature), is counted as dropped and compacted away.
func replaySegment(st *Store, path string, now time.Time, rec *RecoveryStats) (good, records int64, torn bool, err error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, 0, false, nil
	}
	if err != nil {
		return 0, 0, false, fmt.Errorf("certdir: wal replay: %w", err)
	}
	defer f.Close()
	good, records, torn, err = readRecords(f, recordSink{
		publish: func(batch []*cert.Cert) {
			added, _, _ := st.indexVerified(batch, now, false, true)
			rec.Replayed += added
			rec.Dropped += len(batch) - added
		},
		remove: func(hash []byte, expiry time.Time) {
			st.replayRemove(hash, expiry, now)
			rec.Replayed++
		},
		crl: func(rl *cert.RevocationList) {
			// A forged record grants nothing, exactly like a forged
			// certificate; a lapsed one is what Sweep would drop.
			if rl.Verify() == nil && !lapsed(rl, now) && st.keepCRL(rl) {
				rec.Replayed++
			} else {
				rec.Dropped++
			}
		},
		event: func(token uint64, kind string, hash []byte) {
			st.events.restore(token, kind, hash)
			rec.Events++
		},
		bad: func(error) error {
			rec.Dropped++
			return nil
		},
	})
	if err != nil {
		err = fmt.Errorf("certdir: wal replay: %w", err)
	}
	return good, records, torn, err
}

// recordSink is what the records of one stream do to a store. WAL
// replay and snapshot bootstrap read through the same frame loop
// (readRecords) and differ only here.
type recordSink struct {
	publish func(batch []*cert.Cert) // a run of consecutive publishes
	remove  func(hash []byte, expiry time.Time)
	crl     func(rl *cert.RevocationList)
	event   func(token uint64, kind string, hash []byte) // nil skips events
	// bad hears of a record that does not decode: nil skips it, an
	// error ends the stream.
	bad func(error) error
	// snapshot demands a whole snapshot: the stream opens with
	// (wal-base) and ends with a (wal-end) trailer whose count matches
	// the records before it. A segment may end anywhere, torn included.
	snapshot bool
}

// readRecords is the one decoder of directory state. It returns the
// byte offset after the last whole frame, the record count (neither
// the (wal-base) marker nor the trailer is a record), and whether the
// stream ended mid-frame.
//
// Records stream through one sexp.FrameReader, whose record borrows
// the reader's storage only until the next Next; the typed decoders
// copy what they keep, so nothing retained aliases it. Consecutive
// publishes are handed over in batches of up to verifyBatch, so each
// is verified as one unit (Store.indexVerified); any other record
// flushes the pending batch first — stream order is the order the
// mutations happened in.
func readRecords(r io.Reader, k recordSink) (good, records int64, torn bool, err error) {
	br := bufio.NewReaderSize(r, 64<<10)
	var fr sexp.FrameReader
	var batch []*cert.Cert
	flush := func() {
		if len(batch) > 0 {
			k.publish(batch)
			batch = batch[:0]
		}
	}
	defer flush()
	for {
		e, n, err := fr.Next(br)
		switch {
		case err == io.EOF && k.snapshot:
			return good, records, false, errors.New("stream ended without a trailer")
		case err == io.EOF:
			return good, records, false, nil
		case errors.Is(err, sexp.ErrFrameCorrupt) && !k.snapshot:
			return good, records, true, nil
		case err != nil:
			return good, records, false, err
		}
		first := good == 0
		good += int64(n)
		if first && isBaseRecord(e) {
			continue // the marker that opens a base is not a record
		}
		if first && k.snapshot {
			return good, records, false, errors.New("stream does not open with (wal-base)")
		}
		if k.snapshot && e.Tag() == walTagEnd {
			if count, ok := decodeEnd(e); !ok || count != records {
				return good, records, false, fmt.Errorf("trailer disagrees with the %d records before it: %s", records, e)
			}
			if _, _, err := fr.Next(br); err != io.EOF {
				return good, records, false, errors.New("data after the trailer")
			}
			return good, records, false, nil
		}
		records++
		if e.Tag() != walTagPublish {
			flush()
		}
		var bad error
		switch e.Tag() {
		case walTagPublish:
			c, err := decodePublish(e)
			if bad = err; err == nil {
				if batch = append(batch, c); len(batch) >= verifyBatch {
					flush()
				}
			}
		case walTagRemove:
			hash, expiry, err := decodeRemove(e)
			if bad = err; err == nil {
				k.remove(hash, expiry)
			}
		case walTagCRL:
			rl, err := decodeCRL(e)
			if bad = err; err == nil {
				k.crl(rl)
			}
		case walTagEvent:
			if k.event == nil {
				continue
			}
			token, kind, hash, err := decodeEvent(e)
			if bad = err; err == nil {
				k.event(token, kind, hash)
			}
		default:
			bad = fmt.Errorf("certdir: unknown record %q", e.Tag())
		}
		if bad != nil {
			if err := k.bad(bad); err != nil {
				return good, records, false, err
			}
		}
	}
}
