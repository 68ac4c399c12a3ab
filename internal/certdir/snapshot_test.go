package certdir

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
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
func snapshotBytes(t *testing.T, st *Store, now time.Time) []byte {
	t.Helper()
	var b bytes.Buffer
	if _, err := st.WriteSnapshot(&b, now); err != nil {
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
	if err := copyFiles(dst, src); err != nil {
		t.Fatal(err)
	}
	return dst
}

// copyFiles copies the regular files of src into dst.
func copyFiles(dst, src string) error {
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// snapshotStream frames records as a complete snapshot: the base
// marker, the records, and the trailer that counts them.
func snapshotStream(records ...sexp.Sexp) []byte {
	var body []byte
	for _, e := range append(append([]sexp.Sexp{baseRecord()}, records...), endRecord(len(records))) {
		body = sexp.AppendFrame(body, e)
	}
	return body
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
	if res := InstallCRLs(rs, src, []*cert.RevocationList{rl}, now); res.Err != nil || res.Evicted != 1 {
		t.Fatalf("install = %+v, want 1 evicted", res)
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
	rl := cert.NewRevocationList(sfkey.FromSeed([]byte("snap-det-issuer-1")),
		core.Until(now.Add(time.Hour)), certs[1].Hash())

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
	for _, st := range []*Store{a, b} {
		if res := InstallCRLs(cert.NewRevocationStore(), st, []*cert.RevocationList{rl}, now); res.Installed != 1 {
			t.Fatalf("install = %+v, want the list installed", res)
		}
	}

	ab, bb := snapshotBytes(t, a, now), snapshotBytes(t, b, now)
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
	full := snapshotBytes(t, src, now)

	for name, body := range map[string][]byte{
		"mid-frame":  full[:len(full)-25],
		"no-trailer": sexp.AppendFrame(nil, baseRecord()), // clean EOF, but the trailer never arrived
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

	body := snapshotStream(publishRecord(&forged, 0))

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
		dst := NewStore(4)
		rep := NewReplicator(dst, []*Client{snapshotServer(t, snapshotStream(bad))})
		if _, err := rep.BootstrapFromPeer(context.Background()); err == nil {
			t.Errorf("%s: malformed remove frame accepted", name)
		}
		if n := dst.Stats().Tombstones; n != 0 {
			t.Errorf("%s: %d tombstones adopted from a malformed frame", name, n)
		}
	}
}

// TestSnapshotTrailerRequired: the snapshot reader is replay's frame
// loop in its strict mode. A stream must open with (wal-base) and end
// with a trailer counting exactly the records before it; one whose
// trailer is missing, miscounts or is followed by more data fails the
// bootstrap, so the joiner falls back to gossip.
func TestSnapshotTrailerRequired(t *testing.T) {
	now := time.Now()
	certs := walCorpus(t, "snap-trailer", 3, core.Until(now.Add(time.Hour)))
	var records []byte
	for _, c := range certs {
		records = sexp.AppendFrame(records, publishRecord(c, 0))
	}
	base := sexp.AppendFrame(nil, baseRecord())
	frame := func(e sexp.Sexp) []byte { return sexp.AppendFrame(nil, e) }
	join := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	for name, body := range map[string][]byte{
		"no trailer":         join(base, records),
		"trailer counts 2":   join(base, records, frame(endRecord(2))),
		"trailer counts 4":   join(base, records, frame(endRecord(4))),
		"trailer without n":  join(base, records, frame(sexp.List(sexp.String(walTagEnd)))),
		"data after trailer": join(base, records, frame(endRecord(3)), frame(publishRecord(certs[0], 0))),
		"no base marker":     join(records, frame(endRecord(3))),
	} {
		rep := NewReplicator(NewStore(4), []*Client{snapshotServer(t, body)})
		if _, err := rep.BootstrapFromPeer(context.Background()); err == nil {
			t.Errorf("%s: bootstrap accepted the stream", name)
		}
	}
	// The same records with a matching trailer bootstrap fine.
	dst := NewStore(4)
	rep := NewReplicator(dst, []*Client{snapshotServer(t, join(base, records, frame(endRecord(3))))})
	if pulled, err := rep.BootstrapFromPeer(context.Background()); err != nil || pulled != 3 {
		t.Fatalf("complete stream: pulled %d, err %v; want 3, nil", pulled, err)
	}
}

// crashTwinStore opens a durable store and applies a publish/remove
// workload split across a base and an active segment by a compaction:
// the removals in the active segment retract publishes in the base,
// and a CRL installed there evicts one more.
func crashTwinStore(t *testing.T, dir, seed string, now time.Time) (*Store, []*cert.Cert) {
	t.Helper()
	st, _, err := OpenDurable(dir, 4, SyncAlways, now)
	if err != nil {
		t.Fatal(err)
	}
	certs := walCorpus(t, seed, 50, core.Until(now.Add(time.Hour)))
	for _, c := range certs {
		if _, err := st.Publish(c, now); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.CompactWAL(); err != nil {
		t.Fatal(err)
	}
	for _, c := range certs[:8] {
		if !st.Remove(c.Hash()) {
			t.Fatal("remove failed")
		}
	}
	rl := cert.NewRevocationList(sfkey.FromSeed([]byte(seed+"-issuer-0")), // certs[10]'s issuer (10 % 5)
		core.Until(now.Add(time.Hour)), certs[10].Hash())
	if res := InstallCRLs(cert.NewRevocationStore(), st, []*cert.RevocationList{rl}, now); res.Evicted != 1 {
		t.Fatalf("CRL install = %+v, want 1 evicted", res)
	}
	if ws, _ := st.WALStats(); ws.Segments < 2 {
		t.Fatalf("workload stayed in %d segment(s); the compaction did not split the log", ws.Segments)
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
	want := snapshotBytes(t, st, now)

	crash := copyWALDir(t, dir)
	// The record that was mid-write when the power went: a valid frame
	// cut short. It was never acknowledged, so the twin never saw it.
	torn := sexp.AppendFrame(nil, removeRecord(certs[20].Hash(), tombstone{expiry: now.Add(time.Hour)}))
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

	re, rec, err := OpenDurable(crash, 4, SyncAlways, now)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Torn {
		t.Fatalf("recovery = %+v, want torn tail detected", rec)
	}
	if got := snapshotBytes(t, re, now); !bytes.Equal(got, want) {
		t.Fatalf("recovered snapshot differs from twin (%d vs %d bytes)", len(got), len(want))
	}
	if n := len(re.CRLs()); n != 1 {
		t.Fatalf("recovered store holds %d CRLs, want the one installed before the crash", n)
	}
}

// TestCrashMidCompactionTwin: a crash during compaction leaves a
// *.tmp temp beside intact segments. Recovery discards the temp
// (the rename never happened, so it was never the log) and replays
// the originals untouched.
func TestCrashMidCompactionTwin(t *testing.T) {
	now := time.Now()
	dir := t.TempDir()
	st, _ := crashTwinStore(t, dir, "crash-cmp", now)
	want := snapshotBytes(t, st, now)

	crash := copyWALDir(t, dir)
	tmp := activeSegment(t, crash) + ".tmp"
	if err := os.WriteFile(tmp, []byte("half-written compaction output"), 0o644); err != nil {
		t.Fatal(err)
	}

	re, rec, err := OpenDurable(crash, 4, SyncAlways, now)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Torn || rec.Dropped != 0 {
		t.Fatalf("recovery = %+v, want clean replay", rec)
	}
	if left, _ := filepath.Glob(filepath.Join(crash, "*.tmp")); len(left) != 0 {
		t.Fatalf("compaction temps survived recovery: %v", left)
	}
	if got := snapshotBytes(t, re, now); !bytes.Equal(got, want) {
		t.Fatalf("recovered snapshot differs from twin (%d vs %d bytes)", len(got), len(want))
	}
	if n := len(re.CRLs()); n != 1 {
		t.Fatalf("recovered store holds %d CRLs, want the one installed before the crash", n)
	}
}

// TestCrashAfterBaseRenameTwin: a crash after a compaction's commit
// point (the rename of the new base) but before it deleted the
// segments the base supersedes leaves them beside it. Recovery must
// replay from the base alone — the superseded records must not apply
// a second time — land byte-for-byte on the uncrashed twin's snapshot,
// and delete the leftovers.
func TestCrashAfterBaseRenameTwin(t *testing.T) {
	now := time.Now()
	dir := t.TempDir()
	st, _ := crashTwinStore(t, dir, "crash-base", now)
	before := copyWALDir(t, dir)
	if err := st.CompactWAL(); err != nil {
		t.Fatal(err)
	}
	want := snapshotBytes(t, st, now)

	crash := copyWALDir(t, dir)
	ids, err := listSegments(crash)
	if err != nil || len(ids) != 2 {
		t.Fatalf("compacted log holds segments %v (err %v), want base + active", ids, err)
	}
	old, err := listSegments(before)
	if err != nil {
		t.Fatal(err)
	}
	restored := 0
	for _, id := range old {
		if id >= ids[0] {
			continue
		}
		data, err := os.ReadFile(segmentPath(before, id))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(segmentPath(crash, id), data, 0o644); err != nil {
			t.Fatal(err)
		}
		restored++
	}
	if restored == 0 {
		t.Fatalf("no superseded segment below base %d in %v", ids[0], old)
	}

	re, rec, err := OpenDurable(crash, 4, SyncAlways, now)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Torn || rec.Dropped != 0 || rec.Compacted {
		t.Fatalf("recovery = %+v, want a clean replay of base + active", rec)
	}
	if got := snapshotBytes(t, re, now); !bytes.Equal(got, want) {
		t.Fatalf("recovered snapshot differs from twin (%d vs %d bytes)", len(got), len(want))
	}
	if n := len(re.CRLs()); n != 1 {
		t.Fatalf("recovered store holds %d CRLs, want the one installed before the crash", n)
	}
	if left, _ := listSegments(crash); !reflect.DeepEqual(left, ids) {
		t.Fatalf("segments after recovery = %v, want %v (superseded ones deleted)", left, ids)
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
