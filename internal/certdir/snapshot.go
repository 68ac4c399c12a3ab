package certdir

import (
	"fmt"
	"io"
	"time"

	"repro/internal/cert"
	"repro/internal/sexp"
)

// SnapshotFileName is the snapshot artifact the daemon maintains in
// its data directory (next to the WAL segments) when -snapshot-every
// is set; the snapshot endpoint serves it as written.
const SnapshotFileName = "certdir.snap"

// Snapshot bootstrap. A snapshot is a base segment with a trailer:
// the peer's whole live state as the WAL's own records, so a cold
// directory joining an established mesh loads it in ONE bulk transfer
// — verified in batches — and ordinary gossip carries whatever changed
// during the transfer:
//
//	(wal-base)
//	(wal-publish <certificate>)        ... one per live certificate
//	(wal-remove <hash> <expiry-unix>)  ... one per live tombstone
//	(wal-crl <crl>)                    ... one per held CRL
//	(wal-end (count <records>))
//
// The writer is the compaction's collector (Store.collect) and the
// reader is replay's frame loop (readRecords), so a snapshot inherits
// replay's ownership rule (decoders deep-copy what they keep) and its
// strictness about malformed frames. The trailer count lets a reader
// tell a complete snapshot from a stream truncated by a crash or a
// severed connection; a truncated stream aborts the bootstrap and the
// joiner falls back to gossip. The stream is a pure function of
// directory content — no event cursor, no incarnation nonce — which is
// what lets the crash-safety tests compare a recovered node's snapshot
// byte-for-byte against its uncrashed twin's.
//
// Trust: a snapshot grants nothing. Every certificate goes through
// Store.indexVerified — the same verify-before-index call gossip pulls
// end in — and every CRL through InstallCRLs. A malicious snapshot
// server can withhold state but cannot plant any.

// snapshotFrames renders the store's snapshot at now: the collector's
// records, live at now, and the trailer that counts them.
func (s *Store) snapshotFrames(now time.Time) []sexp.Sexp {
	records, _ := s.collect(now, nil)
	return append(records, endRecord(len(records)))
}

// WriteSnapshot streams the store's live state to w in the snapshot
// format above: certificates live at now, unexpired tombstones and the
// CRLs the store holds. Two stores holding the same state at the same
// instant write identical bytes. Returns the bytes written.
func (s *Store) WriteSnapshot(w io.Writer, now time.Time) (int64, error) {
	return writeFrames(w, s.snapshotFrames(now))
}

// WriteSnapshotFile writes the store's snapshot to path through
// writeBase, the WAL's durable write, so a reader never sees a
// half-written artifact and a crash mid-write leaves either the
// previous snapshot or the new one. The CRLs come from the store;
// revs is unused and stays only because the benchmark passes it.
func WriteSnapshotFile(path string, st *Store, revs *cert.RevocationStore, now time.Time) error {
	if _, err := writeBase(path, st.snapshotFrames(now)); err != nil {
		return fmt.Errorf("certdir: snapshot: %w", err)
	}
	return nil
}

// AdoptTombstone installs a retraction learned from a snapshot: the
// certificate was removed at the serving directory, so the
// bootstrapping one must refuse to pull it back even though it never
// indexed it. The retraction is heard, not made here (see tombstone).
// Journaled like a local Remove (so the tombstone survives a restart)
// but emits no event — this node's subscribers never saw
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
		if err := s.wal.appendRecord(removeRecord(hash, tombstone{expiry, true})); err != nil {
			s.walErrors.Add(1)
		}
	}
	s.tombstones[key] = tombstone{expiry, true}
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
