package certdir

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"repro/internal/cert"
	"repro/internal/sexp"
)

// SnapshotFileName is the snapshot artifact the daemon maintains in
// its data directory (next to the WAL segments) when -snapshot-every
// is set; the snapshot endpoint serves it as written.
const SnapshotFileName = "certdir.snap"

// Snapshot bootstrap. A cold directory joining an established mesh
// used to converge by gossip alone: thousands of hash-list diffs and
// fetch round trips, each batch individually verified. A snapshot
// collapses that into ONE bulk transfer — the peer's whole live state,
// streamed as the same CRC-framed records the WAL uses — followed by
// ordinary gossip for whatever changed during the transfer.
//
// Stream format (each line one sexp.AppendFrame frame):
//
//	(snap-header (version 1) (cursor <event-seq>))
//	(wal-publish <certificate>)        ... one per live certificate
//	(wal-remove <hash> <expiry-unix>)  ... one per live tombstone
//	(snap-crl <crl>)                   ... one per installed CRL
//	(snap-end (count <records>))
//
// The record frames reuse the WAL's publish/remove encoding through
// the same encode/decode functions (wal.go), so the snapshot consumer
// inherits replay's ownership rule (decoders deep-copy what they
// keep) and its strictness about malformed frames. The
// trailer count lets a reader distinguish a complete snapshot from a
// stream truncated by a crash or severed connection; a truncated
// stream aborts the bootstrap and the joiner falls back to gossip.
//
// Trust: a snapshot grants nothing. Every certificate goes through
// Store.indexVerified — the same verify-before-index call gossip pulls
// end in — and every CRL through InstallCRLs. A malicious snapshot
// server can withhold state but cannot plant any.
//
// The header cursor is the serving store's event sequence at snapshot
// time, as a BARE sequence number (no boot nonce): the nonce is an
// incarnation artifact, and keeping it out of the snapshot keeps the
// byte stream a pure function of directory content — which is what
// lets the crash-safety tests compare a recovered node's snapshot
// byte-for-byte against its uncrashed twin's.

// Snapshot frame tags (record frames reuse walTagPublish/walTagRemove).
const (
	snapTagHeader = "snap-header"
	snapTagCRL    = "snap-crl"
	snapTagEnd    = "snap-end"
)

// snapTrailerCount extracts the record count from a snap-end frame.
func snapTrailerCount(e sexp.Sexp) (int, bool) {
	c := e.Child("count")
	if c == nil || c.Len() != 2 {
		return 0, false
	}
	n, err := strconv.Atoi(c.Nth(1).Text())
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// WriteSnapshot streams the store's live state to w in the snapshot
// format above: certificates live at now, unexpired tombstones, and
// the installed CRLs (revs may be nil). The stream is deterministic —
// entries ordered by content hash, tombstones by key, CRLs by hash —
// so two stores holding the same state at the same instant produce
// identical bytes. Returns the bytes written.
//
// Consistency: the state is collected under brief per-shard read
// locks, not one global freeze, so a snapshot taken under concurrent
// writes is a point-in-time-ish view — fine for bootstrap, where tail
// gossip reconciles anything that moved during the write.
func (s *Store) WriteSnapshot(w io.Writer, revs *cert.RevocationStore, now time.Time) (int, error) {
	// Collect live entries, sorted by hash key for determinism.
	type liveEnt struct {
		key string
		c   *cert.Cert
	}
	var ents []liveEnt
	for _, sh := range s.shards {
		sh.mu.RLock()
		for k, e := range sh.byHash {
			if e.expiry.IsZero() || now.Before(e.expiry) {
				ents = append(ents, liveEnt{key: k, c: e.cert})
			}
		}
		sh.mu.RUnlock()
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].key < ents[j].key })

	tombs := s.tombstoneSnapshot()
	keys := make([]string, 0, len(tombs))
	for k, exp := range tombs {
		if exp.IsZero() || now.Before(exp) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)

	var lists []*cert.RevocationList
	if revs != nil {
		lists = append(lists, revs.Lists()...)
		sort.Slice(lists, func(i, j int) bool {
			hi, hj := lists[i].Hash(), lists[j].Hash()
			return bytes.Compare(hi[:], hj[:]) < 0
		})
	}

	n := 0
	buf := sexp.GetBuf()
	defer sexp.PutBuf(buf)
	emit := func(e sexp.Sexp) error {
		buf = sexp.AppendFrame(buf[:0], e)
		wn, err := w.Write(buf)
		n += wn
		return err
	}

	cursor := s.events.Emitted()
	header := sexp.List(sexp.String(snapTagHeader),
		sexp.List(sexp.String("version"), sexp.String("1")),
		sexp.List(sexp.String("cursor"), sexp.String(strconv.FormatUint(cursor, 10))))
	if err := emit(header); err != nil {
		return n, err
	}
	records := 0
	for _, le := range ents {
		if err := emit(publishRecord(le.c)); err != nil {
			return n, err
		}
		records++
	}
	for _, k := range keys {
		if err := emit(removeRecord([]byte(k), tombs[k])); err != nil {
			return n, err
		}
		records++
	}
	for _, rl := range lists {
		if err := emit(sexp.List(sexp.String(snapTagCRL), rl.Sexp())); err != nil {
			return n, err
		}
		records++
	}
	trailer := sexp.List(sexp.String(snapTagEnd),
		sexp.List(sexp.String("count"), sexp.String(strconv.Itoa(records))))
	if err := emit(trailer); err != nil {
		return n, err
	}
	return n, nil
}

// WriteSnapshotFile writes a snapshot to path with the WAL's
// durability discipline — temp file, fsync, atomic rename, directory
// sync — so a reader never sees a half-written artifact and a crash
// mid-write leaves either the previous snapshot or the new one,
// nothing in between.
func WriteSnapshotFile(path string, st *Store, revs *cert.RevocationStore, now time.Time) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("certdir: snapshot: %w", err)
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if _, err = st.WriteSnapshot(bw, revs, now); err == nil {
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
	if err == nil {
		err = syncDir(filepath.Dir(path))
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("certdir: snapshot: %w", err)
	}
	return nil
}

// AdoptTombstone installs a retraction learned from a snapshot: the
// certificate was removed at the serving directory, so the
// bootstrapping one must refuse to pull it back even though it never
// indexed it. Journaled like a local Remove (so the tombstone survives
// a restart) but emits no event — this node's subscribers never saw
// the certificate, so there is nothing to invalidate. Expired
// retractions are dropped, exactly as Sweep would.
//
// Ordering: the record is journaled and the tombstone installed under
// the tombstone lock, so a compaction's cut sees both or neither; and
// both happen before the entry scan, so a publish racing the adoption
// is either seen by the scan (and dropped) or runs after it and clears
// the tombstone under its shard lock — the store never holds both an
// entry and its tombstone.
func (s *Store) AdoptTombstone(hash []byte, expiry time.Time, now time.Time) {
	if !expiry.IsZero() && !now.Before(expiry) {
		return
	}
	key := string(hash)
	s.tmu.Lock()
	if s.wal != nil {
		if err := s.wal.appendRecord(removeRecord(hash, expiry)); err != nil {
			s.walErrors.Add(1)
		}
	}
	s.tombstones[key] = expiry
	s.tmu.Unlock()
	for _, sh := range s.shards {
		sh.mu.Lock()
		if e, ok := sh.byHash[key]; ok {
			sh.dropLocked(e)
			s.merkleDrop(e.hashKey)
			sh.mu.Unlock()
			return
		}
		sh.mu.Unlock()
	}
}
