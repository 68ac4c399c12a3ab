package certdir

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/principal"
	"repro/internal/sexp"
	"repro/internal/sfkey"
	"repro/internal/tag"
)

// snapshotBytes captures a store's full snapshot stream in memory —
// the byte-for-byte comparator the crash-twin tests are built on.
func snapshotBytes(t *testing.T, st *Store, revs *cert.RevocationStore, now time.Time) []byte {
	t.Helper()
	var b bytes.Buffer
	if _, err := st.WriteSnapshot(&b, revs, now); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// copyWALDir clones a data directory into a fresh temp dir, so a test
// can corrupt the clone the way a crash would and recover from it
// while the original store keeps running as the uncrashed twin.
func copyWALDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// snapshotServer serves fixed bytes at every path — a stand-in for a
// peer whose snapshot stream was severed or tampered with.
func snapshotServer(t *testing.T, body []byte) *Client {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(body)
	}))
	t.Cleanup(ts.Close)
	return NewClient(ts.URL)
}

// TestSnapshotBootstrapRoundTrip: a cold node bootstraps everything a
// live directory holds — certificates, tombstones for removed AND
// revoked entries, and the CRLs themselves — in one transfer.
func TestSnapshotBootstrapRoundTrip(t *testing.T) {
	now := time.Now()
	src := NewStore(4)
	rs := cert.NewRevocationStore()
	certs := walCorpus(t, "snap-boot", 60, core.Until(now.Add(time.Hour)))
	for _, c := range certs {
		if _, err := src.Publish(c, now); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range certs[:5] {
		if !src.Remove(c.Hash()) {
			t.Fatal("remove failed")
		}
	}
	revoked := certs[10] // issuer seed snap-boot-issuer-0 (10 % 5)
	rl := cert.NewRevocationList(sfkey.FromSeed([]byte("snap-boot-issuer-0")),
		core.Until(now.Add(time.Hour)), revoked.Hash())
	if _, errs := rs.Add(rl); errs[0] != nil {
		t.Fatal(errs[0])
	}
	if n := src.EvictRevoked(rs.RevokedAt(now)); n != 1 {
		t.Fatalf("evicted %d, want 1", n)
	}

	svc := NewService(src)
	svc.Revocations = rs
	ts := httptest.NewServer(svc)
	t.Cleanup(ts.Close)

	dst := NewStore(4)
	drs := cert.NewRevocationStore()
	rep := NewReplicator(dst, []*Client{NewClient(ts.URL)})
	rep.Revocations = drs
	pulled, err := rep.BootstrapFromPeer(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if pulled != 54 {
		t.Fatalf("bootstrapped %d certs, want 54 (60 - 5 removed - 1 revoked)", pulled)
	}
	sameContents(t, dst, src, now, certs)
	for _, c := range certs[:5] {
		if !dst.Tombstoned(c.Hash()) {
			t.Fatal("removed certificate's tombstone not adopted")
		}
	}
	if !dst.Tombstoned(revoked.Hash()) {
		t.Fatal("revoked certificate's tombstone not adopted")
	}
	if !drs.Has(rl.Hash()) {
		t.Fatal("CRL not installed from snapshot")
	}
	if st := rep.Stats(); st.CRLsPulled != 1 || st.PullRejected != 0 {
		t.Fatalf("stats = %+v, want 1 CRL pulled, 0 rejected", st)
	}
}

// TestSnapshotDeterministicBytes: the stream is a pure function of
// directory content — publish order, removal order, and even shard
// count must not leak into the bytes.
func TestSnapshotDeterministicBytes(t *testing.T) {
	now := time.Now()
	certs := walCorpus(t, "snap-det", 40, core.Until(now.Add(time.Hour)))
	rs := cert.NewRevocationStore()
	if _, errs := rs.Add(cert.NewRevocationList(sfkey.FromSeed([]byte("snap-det-issuer-1")),
		core.Until(now.Add(time.Hour)), certs[1].Hash())); errs[0] != nil {
		t.Fatal(errs[0])
	}

	a, b := NewStore(4), NewStore(8)
	for _, c := range certs {
		if _, err := a.Publish(c, now); err != nil {
			t.Fatal(err)
		}
	}
	for i := len(certs) - 1; i >= 0; i-- {
		if _, err := b.Publish(certs[i], now); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range certs[20:26] {
		a.Remove(c.Hash())
	}
	for i := 25; i >= 20; i-- {
		b.Remove(certs[i].Hash())
	}

	ab, bb := snapshotBytes(t, a, rs, now), snapshotBytes(t, b, rs, now)
	if !bytes.Equal(ab, bb) {
		t.Fatalf("snapshot bytes differ (%d vs %d bytes) for identical content", len(ab), len(bb))
	}
}

// TestSnapshotTruncatedRejected: a severed stream must abort the
// bootstrap, whether it breaks mid-frame or at a clean frame boundary
// before the trailer.
func TestSnapshotTruncatedRejected(t *testing.T) {
	now := time.Now()
	src := NewStore(4)
	for _, c := range walCorpus(t, "snap-trunc", 30, core.Until(now.Add(time.Hour))) {
		if _, err := src.Publish(c, now); err != nil {
			t.Fatal(err)
		}
	}
	full := snapshotBytes(t, src, nil, now)

	header := sexp.AppendFrame(nil, sexp.List(sexp.String(snapTagHeader),
		sexp.List(sexp.String("version"), sexp.String("1")),
		sexp.List(sexp.String("cursor"), sexp.String("0"))))

	for name, body := range map[string][]byte{
		"mid-frame":  full[:len(full)-25],
		"no-trailer": header, // clean EOF, but the trailer never arrived
	} {
		dst := NewStore(4)
		rep := NewReplicator(dst, []*Client{snapshotServer(t, body)})
		if _, err := rep.BootstrapFromPeer(context.Background()); err == nil {
			t.Fatalf("%s: truncated snapshot accepted", name)
		}
	}
}

// TestSnapshotForgedCertRejected: a snapshot grants nothing — a
// well-formed stream carrying a bad signature is counted as rejected
// and never indexed.
func TestSnapshotForgedCertRejected(t *testing.T) {
	now := time.Now()
	good := delegate2(t, sfkey.FromSeed([]byte("snap-forge")),
		principal.KeyOf(sfkey.FromSeed([]byte("snap-forge-s")).Public()),
		tag.All(), core.Until(now.Add(time.Hour)))
	forged := *good
	forged.Signature = append([]byte(nil), good.Signature...)
	forged.Signature[0] ^= 1

	var body []byte
	body = sexp.AppendFrame(body, sexp.List(sexp.String(snapTagHeader),
		sexp.List(sexp.String("version"), sexp.String("1")),
		sexp.List(sexp.String("cursor"), sexp.String("0"))))
	body = sexp.AppendFrame(body, sexp.List(sexp.String(walTagPublish), forged.Sexp()))
	body = sexp.AppendFrame(body, sexp.List(sexp.String(snapTagEnd),
		sexp.List(sexp.String("count"), sexp.String("1"))))

	dst := NewStore(4)
	rep := NewReplicator(dst, []*Client{snapshotServer(t, body)})
	pulled, err := rep.BootstrapFromPeer(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if pulled != 0 || dst.Len() != 0 || dst.HasHash(forged.Hash()) {
		t.Fatalf("forged certificate indexed (pulled=%d len=%d)", pulled, dst.Len())
	}
	if st := rep.Stats(); st.PullRejected != 1 {
		t.Fatalf("PullRejected = %d, want 1", st.PullRejected)
	}
}

// TestSnapshotMalformedRemoveRejected: the peer-served stream goes
// through the same frame decoder as WAL replay. A retraction whose
// expiry is not an integer (read leniently: an immortal tombstone) or
// whose hash is not a full content hash fails the bootstrap instead of
// being adopted.
func TestSnapshotMalformedRemoveRejected(t *testing.T) {
	hash := sfkey.HashBytes([]byte("snap-badrm"))
	for name, bad := range map[string]sexp.Sexp{
		"non-integer expiry": sexp.List(sexp.String(walTagRemove), sexp.Atom(hash), sexp.String("never")),
		"short hash":         sexp.List(sexp.String(walTagRemove), sexp.Atom(hash[:8]), sexp.String("0")),
	} {
		body := sexp.AppendFrame(nil, sexp.List(sexp.String(snapTagHeader),
			sexp.List(sexp.String("version"), sexp.String("1")),
			sexp.List(sexp.String("cursor"), sexp.String("0"))))
		body = sexp.AppendFrame(body, bad)
		body = sexp.AppendFrame(body, sexp.List(sexp.String(snapTagEnd),
			sexp.List(sexp.String("count"), sexp.String("1"))))

		dst := NewStore(4)
		rep := NewReplicator(dst, []*Client{snapshotServer(t, body)})
		if _, err := rep.BootstrapFromPeer(context.Background()); err == nil {
			t.Errorf("%s: malformed remove frame accepted", name)
		}
		if n := dst.Stats().Tombstones; n != 0 {
			t.Errorf("%s: %d tombstones adopted from a malformed frame", name, n)
		}
	}
}

// crashTwinStore opens a small-segment durable store and applies a
// publish/remove workload that forces several rotations.
func crashTwinStore(t *testing.T, dir, seed string, now time.Time) (*Store, []*cert.Cert) {
	t.Helper()
	st, _, err := OpenDurableOpts(dir, 4, SyncAlways, now, WALOptions{SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	certs := walCorpus(t, seed, 50, core.Until(now.Add(time.Hour)))
	for _, c := range certs {
		if _, err := st.Publish(c, now); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range certs[:8] {
		if !st.Remove(c.Hash()) {
			t.Fatal("remove failed")
		}
	}
	if ws, _ := st.WALStats(); ws.Segments < 2 {
		t.Fatalf("workload stayed in %d segment(s); rotations not exercised", ws.Segments)
	}
	return st, certs
}

// activeSegment returns the path of the highest-numbered WAL segment.
func activeSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "certdir-*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s (err %v)", dir, err)
	}
	last := segs[0]
	for _, s := range segs[1:] {
		if s > last {
			last = s
		}
	}
	return last
}

// TestCrashMidRotationTwin: a crash between rotating to a new segment
// and durably appending to it leaves a torn record in the old active
// segment and possibly an empty new one. Recovery must drop exactly
// the unacknowledged tail and land byte-for-byte on the uncrashed
// twin's snapshot.
func TestCrashMidRotationTwin(t *testing.T) {
	now := time.Now()
	dir := t.TempDir()
	st, certs := crashTwinStore(t, dir, "crash-rot", now)
	want := snapshotBytes(t, st, nil, now)

	crash := copyWALDir(t, dir)
	// The record that was mid-write when the power went: a valid frame
	// cut short. It was never acknowledged, so the twin never saw it.
	torn := sexp.AppendFrame(nil, removeRecord(certs[20].Hash(), now.Add(time.Hour)))
	f, err := os.OpenFile(activeSegment(t, crash), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn[:len(torn)-7]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// And the freshly created next segment the crash left empty.
	if err := os.WriteFile(filepath.Join(crash, walSegmentName(99999999)), nil, 0o644); err != nil {
		t.Fatal(err)
	}

	re, rec, err := OpenDurableOpts(crash, 4, SyncAlways, now, WALOptions{SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Torn {
		t.Fatalf("recovery = %+v, want torn tail detected", rec)
	}
	if got := snapshotBytes(t, re, nil, now); !bytes.Equal(got, want) {
		t.Fatalf("recovered snapshot differs from twin (%d vs %d bytes)", len(got), len(want))
	}
}

// TestCrashMidCompactionTwin: a crash during compaction leaves a
// *.compact temp beside intact segments. Recovery discards the temp
// (the rename never happened, so it was never the log) and replays
// the originals untouched.
func TestCrashMidCompactionTwin(t *testing.T) {
	now := time.Now()
	dir := t.TempDir()
	st, _ := crashTwinStore(t, dir, "crash-cmp", now)
	want := snapshotBytes(t, st, nil, now)

	crash := copyWALDir(t, dir)
	tmp := activeSegment(t, crash) + ".compact"
	if err := os.WriteFile(tmp, []byte("half-written compaction output"), 0o644); err != nil {
		t.Fatal(err)
	}

	re, rec, err := OpenDurableOpts(crash, 4, SyncAlways, now, WALOptions{SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Torn || rec.Dropped != 0 {
		t.Fatalf("recovery = %+v, want clean replay", rec)
	}
	if left, _ := filepath.Glob(filepath.Join(crash, "*.compact")); len(left) != 0 {
		t.Fatalf("compaction temps survived recovery: %v", left)
	}
	if got := snapshotBytes(t, re, nil, now); !bytes.Equal(got, want) {
		t.Fatalf("recovered snapshot differs from twin (%d vs %d bytes)", len(got), len(want))
	}
}

// TestCrashMidSnapshotWriteTwin: a crash during WriteSnapshotFile
// leaves a partial .tmp beside the previous complete artifact. The
// endpoint keeps serving the complete one (the rename is the commit
// point), a cold peer bootstraps from it successfully, and the next
// snapshot write replaces it atomically.
func TestCrashMidSnapshotWriteTwin(t *testing.T) {
	now := time.Now()
	dir := t.TempDir()
	st := NewStore(4)
	certs := walCorpus(t, "crash-snap", 30, core.Until(now.Add(time.Hour)))
	for _, c := range certs {
		if _, err := st.Publish(c, now); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(dir, SnapshotFileName)
	if err := WriteSnapshotFile(path, st, nil, now); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path+".tmp", []byte("interrupted snapshot write"), 0o644); err != nil {
		t.Fatal(err)
	}

	svc := NewService(st)
	svc.SnapshotPath = path
	ts := httptest.NewServer(svc)
	t.Cleanup(ts.Close)

	dst := NewStore(4)
	rep := NewReplicator(dst, []*Client{NewClient(ts.URL)})
	pulled, err := rep.BootstrapFromPeer(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if pulled != 30 || dst.Len() != 30 {
		t.Fatalf("bootstrapped %d certs (store %d), want 30", pulled, dst.Len())
	}

	// The next snapshot write commits over both the artifact and the
	// stale temp, and a second cold peer sees the new state.
	extra := delegate2(t, sfkey.FromSeed([]byte("crash-snap-x")),
		principal.KeyOf(sfkey.FromSeed([]byte("crash-snap-xs")).Public()),
		tag.All(), core.Until(now.Add(time.Hour)))
	if _, err := st.Publish(extra, now); err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshotFile(path, st, nil, now); err != nil {
		t.Fatal(err)
	}
	dst2 := NewStore(4)
	rep2 := NewReplicator(dst2, []*Client{NewClient(ts.URL)})
	if pulled, err := rep2.BootstrapFromPeer(context.Background()); err != nil || pulled != 31 {
		t.Fatalf("post-rewrite bootstrap pulled %d (err %v), want 31", pulled, err)
	}
}
