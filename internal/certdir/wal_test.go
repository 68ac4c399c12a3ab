package certdir

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/principal"
	"repro/internal/sexp"
	"repro/internal/sfkey"
	"repro/internal/tag"
)

// walCorpus signs n certificates from a handful of issuers, stable
// across calls with the same seed prefix.
func walCorpus(t *testing.T, seed string, n int, v core.Validity) []*cert.Cert {
	t.Helper()
	out := make([]*cert.Cert, n)
	for i := range out {
		priv := sfkey.FromSeed([]byte(fmt.Sprintf("%s-issuer-%d", seed, i%5)))
		subj := principal.KeyOf(sfkey.FromSeed([]byte(fmt.Sprintf("%s-subj-%d", seed, i%7))).Public())
		out[i] = delegate2(t, priv, subj, tag.Literal(fmt.Sprintf("%s-r%d", seed, i)), v)
	}
	return out
}

// delegate2 mirrors store_test's delegate helper (kept separate so the
// files read independently).
func delegate2(t *testing.T, priv *sfkey.PrivateKey, subject principal.Principal, tg tag.Tag, v core.Validity) *cert.Cert {
	t.Helper()
	c, err := cert.Delegate(priv, subject, principal.KeyOf(priv.Public()), tg, v)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// sameContents asserts two stores hold identical certificate sets with
// identical shapes: total length, per-shard counts, and per-issuer /
// per-subject answers.
func sameContents(t *testing.T, got, want *Store, now time.Time, certs []*cert.Cert) {
	t.Helper()
	if g, w := got.Len(), want.Len(); g != w {
		t.Fatalf("Len: got %d want %d", g, w)
	}
	if g, w := got.ShardCounts(), want.ShardCounts(); !reflect.DeepEqual(g, w) {
		t.Fatalf("ShardCounts: got %v want %v", g, w)
	}
	seenPrins := map[string]principal.Principal{}
	for _, c := range certs {
		seenPrins[c.Body.Issuer.Key()] = c.Body.Issuer
		seenPrins[c.Body.Subject.Key()] = c.Body.Subject
	}
	for _, p := range seenPrins {
		if g, w := hashSet(got.ByIssuer(p, now)), hashSet(want.ByIssuer(p, now)); !reflect.DeepEqual(g, w) {
			t.Fatalf("ByIssuer(%s): got %d certs want %d", p, len(g), len(w))
		}
		if g, w := hashSet(got.BySubject(p, now)), hashSet(want.BySubject(p, now)); !reflect.DeepEqual(g, w) {
			t.Fatalf("BySubject(%s): got %d certs want %d", p, len(g), len(w))
		}
	}
}

func hashSet(cs []*cert.Cert) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = string(c.Hash())
	}
	sort.Strings(out)
	return out
}

func TestDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	now := time.Now()
	v := core.Until(now.Add(time.Hour))
	certs := walCorpus(t, "wal-rt", 40, v)

	st, rec, err := OpenDurable(dir, 4, SyncAlways, now)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Replayed != 0 || rec.Torn {
		t.Fatalf("fresh open recovery = %+v", rec)
	}
	twin := NewStore(4)
	for _, c := range certs {
		for _, s := range []*Store{st, twin} {
			if _, err := s.Publish(c, now); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Retract a few; the twin mirrors it.
	for _, c := range certs[:5] {
		if !st.Remove(c.Hash()) || !twin.Remove(c.Hash()) {
			t.Fatal("remove failed")
		}
	}
	if err := st.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	re, rec, err := OpenDurable(dir, 4, SyncAlways, now)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Torn {
		t.Fatalf("clean log reported torn: %+v", rec)
	}
	if rec.Replayed != 45 { // 40 publishes + 5 removes
		t.Fatalf("replayed %d records, want 45", rec.Replayed)
	}
	sameContents(t, re, twin, now, certs)
	for _, c := range certs[:5] {
		if !re.Tombstoned(c.Hash()) {
			t.Fatal("tombstone lost across restart")
		}
	}
}

// TestDurableCrashMidPublishStream kills the store mid-stream: the WAL
// is cut inside the last record (a torn write), replayed, and the
// result must match a twin that never saw the torn publish.
func TestDurableCrashMidPublishStream(t *testing.T) {
	dir := t.TempDir()
	now := time.Now()
	v := core.Until(now.Add(time.Hour))
	certs := walCorpus(t, "wal-crash", 30, v)

	st, _, err := OpenDurable(dir, 4, SyncAlways, now)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range certs {
		if _, err := st.Publish(c, now); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	// The twin saw every publish except the last.
	twin := NewStore(4)
	for _, c := range certs[:len(certs)-1] {
		if _, err := twin.Publish(c, now); err != nil {
			t.Fatal(err)
		}
	}

	// "Crash": the final record's tail never hit the disk.
	walPath := filepath.Join(dir, walSegmentName(1))
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	crashDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(crashDir, walSegmentName(1)), raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	re, rec, err := OpenDurable(crashDir, 4, SyncAlways, now)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Torn || !rec.Compacted {
		t.Fatalf("recovery = %+v, want torn + compacted", rec)
	}
	if rec.Replayed != len(certs)-1 {
		t.Fatalf("replayed %d, want %d", rec.Replayed, len(certs)-1)
	}
	sameContents(t, re, twin, now, certs)

	// The truncated+compacted log must now be clean: a second restart
	// replays without complaint and yields the same store again.
	if err := re.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	re2, rec2, err := OpenDurable(crashDir, 4, SyncAlways, now)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.Torn || rec2.Dropped != 0 {
		t.Fatalf("second recovery = %+v, want clean", rec2)
	}
	sameContents(t, re2, twin, now, certs)
}

func TestWALCompactionShrinksLog(t *testing.T) {
	dir := t.TempDir()
	now := time.Now()
	short := core.Between(now.Add(-time.Minute), now.Add(time.Minute))
	long := core.Until(now.Add(time.Hour))

	st, _, err := OpenDurable(dir, 4, SyncNever, now)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range walCorpus(t, "wal-cp-short", 30, short) {
		if _, err := st.Publish(c, now); err != nil {
			t.Fatal(err)
		}
	}
	keep := walCorpus(t, "wal-cp-long", 3, long)
	for _, c := range keep {
		if _, err := st.Publish(c, now); err != nil {
			t.Fatal(err)
		}
	}
	before, _ := st.WALStats()
	if n := st.Sweep(now.Add(30 * time.Minute)); n != 30 {
		t.Fatalf("swept %d, want 30", n)
	}
	after, _ := st.WALStats()
	if after.Compactions != before.Compactions+1 {
		t.Fatalf("compactions %d -> %d, want +1", before.Compactions, after.Compactions)
	}
	if after.SizeBytes >= before.SizeBytes {
		t.Fatalf("log did not shrink: %d -> %d bytes", before.SizeBytes, after.SizeBytes)
	}
	if err := st.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	re, rec, err := OpenDurable(dir, 4, SyncNever, now)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Replayed != 3 || re.Len() != 3 {
		t.Fatalf("after compaction: replayed=%d len=%d, want 3/3", rec.Replayed, re.Len())
	}
}

// TestWALTombstoneSurvivesCompaction: a removal's tombstone must
// outlive both compaction and restart, or gossip could resurrect the
// removed certificate; an explicit re-publish clears it.
func TestWALTombstoneSurvivesCompaction(t *testing.T) {
	dir := t.TempDir()
	now := time.Now()
	priv := sfkey.FromSeed([]byte("wal-tomb"))
	c := delegate2(t, priv, principal.KeyOf(sfkey.FromSeed([]byte("wal-tomb-s")).Public()),
		tag.All(), core.Until(now.Add(time.Hour)))

	st, _, err := OpenDurable(dir, 4, SyncAlways, now)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Publish(c, now); err != nil {
		t.Fatal(err)
	}
	if !st.Remove(c.Hash()) {
		t.Fatal("remove failed")
	}
	if err := st.CompactWAL(); err != nil {
		t.Fatal(err)
	}
	if err := st.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	re, _, err := OpenDurable(dir, 4, SyncAlways, now)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 0 || !re.Tombstoned(c.Hash()) {
		t.Fatalf("after restart: len=%d tombstoned=%v, want 0/true", re.Len(), re.Tombstoned(c.Hash()))
	}
	if added, err := re.Publish(c, now); err != nil || !added {
		t.Fatalf("re-publish: added=%v err=%v", added, err)
	}
	if re.Tombstoned(c.Hash()) {
		t.Fatal("re-publish did not clear the tombstone")
	}
}

// TestWALReplayDropsForgery: a log tampered with at rest (valid frame,
// invalid signature) must not plant authority — replay re-verifies.
func TestWALReplayDropsForgery(t *testing.T) {
	dir := t.TempDir()
	now := time.Now()
	priv := sfkey.FromSeed([]byte("wal-forge"))
	good := delegate2(t, priv, principal.KeyOf(sfkey.FromSeed([]byte("wal-forge-s")).Public()),
		tag.All(), core.Until(now.Add(time.Hour)))
	forged := *good
	forged.Signature = append([]byte(nil), good.Signature...)
	forged.Signature[0] ^= 1

	var raw []byte
	raw = sexp.AppendFrame(raw, sexp.List(sexp.String("wal-publish"), good.Sexp()))
	raw = sexp.AppendFrame(raw, sexp.List(sexp.String("wal-publish"), forged.Sexp()))
	if err := os.WriteFile(filepath.Join(dir, walSegmentName(1)), raw, 0o644); err != nil {
		t.Fatal(err)
	}

	st, rec, err := OpenDurable(dir, 4, SyncAlways, now)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Replayed != 1 || rec.Dropped != 1 || !rec.Compacted {
		t.Fatalf("recovery = %+v, want 1 replayed, 1 dropped, compacted", rec)
	}
	if st.Len() != 1 || !st.HasHash(good.Hash()) {
		t.Fatalf("store holds %d certs", st.Len())
	}
}

// TestWALReplayDropsMalformedRemove: a remove frame is outside input
// like any other log record. One whose expiry is not an integer must
// not be read as "never expires" (an immortal tombstone that also
// drops the certificate it names), and one whose hash is not a full
// content hash names nothing; replay counts both as Dropped.
func TestWALReplayDropsMalformedRemove(t *testing.T) {
	now := time.Now()
	c := delegate2(t, sfkey.FromSeed([]byte("wal-badrm")),
		principal.KeyOf(sfkey.FromSeed([]byte("wal-badrm-s")).Public()),
		tag.All(), core.Until(now.Add(time.Hour)))
	for name, bad := range map[string]sexp.Sexp{
		"non-integer expiry": sexp.List(sexp.String(walTagRemove), sexp.Atom(c.Hash()), sexp.String("never")),
		"short hash":         sexp.List(sexp.String(walTagRemove), sexp.Atom(c.Hash()[:8]), sexp.String("0")),
	} {
		dir := t.TempDir()
		raw := sexp.AppendFrame(nil, publishRecord(c))
		raw = sexp.AppendFrame(raw, bad)
		if err := os.WriteFile(filepath.Join(dir, walSegmentName(1)), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		st, rec, err := OpenDurable(dir, 4, SyncNever, now)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rec.Replayed != 1 || rec.Dropped != 1 {
			t.Errorf("%s: recovery = %+v, want 1 replayed, 1 dropped", name, rec)
		}
		if !st.HasHash(c.Hash()) || st.Stats().Tombstones != 0 {
			t.Errorf("%s: malformed frame took effect (stored=%v, tombstones=%d)",
				name, st.HasHash(c.Hash()), st.Stats().Tombstones)
		}
		if err := st.CloseWAL(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOpenDurableRefusesLegacyWAL: a data dir still holding the
// single-file certdir.wal is refused with an error naming the file —
// never opened empty past it — and the file is left untouched.
func TestOpenDurableRefusesLegacyWAL(t *testing.T) {
	dir := t.TempDir()
	now := time.Now()
	c := delegate2(t, sfkey.FromSeed([]byte("wal-legacy")),
		principal.KeyOf(sfkey.FromSeed([]byte("wal-legacy-s")).Public()),
		tag.All(), core.Until(now.Add(time.Hour)))
	legacy := filepath.Join(dir, "certdir.wal")
	raw := sexp.AppendFrame(nil, publishRecord(c))
	if err := os.WriteFile(legacy, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := OpenDurable(dir, 4, SyncNever, now)
	if err == nil || !strings.Contains(err.Error(), legacy) {
		t.Fatalf("OpenDurable over a legacy log: err = %v, want a refusal naming %s", err, legacy)
	}
	if got, rerr := os.ReadFile(legacy); rerr != nil || !bytes.Equal(got, raw) {
		t.Fatalf("legacy log was touched (read err %v)", rerr)
	}
	if ids, _ := listSegments(dir); len(ids) != 0 {
		t.Fatalf("refused open still created segments %v", ids)
	}
}

// TestWALCompactDuringPublishes hammers Publish and Remove from
// several goroutines concurrently with compactions: every acknowledged
// mutation must survive the log rewrites exactly once (the cut-vs-append
// race: a record in both the base and the active segment replays as a
// dropped duplicate), verified by replaying into a fresh store. Run
// under -race in CI.
func TestWALCompactDuringPublishes(t *testing.T) {
	dir := t.TempDir()
	now := time.Now()
	certs := walCorpus(t, "wal-race", 240, core.Until(now.Add(time.Hour)))

	st, _, err := OpenDurable(dir, 4, SyncNever, now)
	if err != nil {
		t.Fatal(err)
	}
	copies := t.TempDir()
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				if i >= 40 {
					return
				}
			default:
			}
			if err := st.CompactWAL(); err != nil {
				t.Error(err)
				return
			}
			// Each cut must hold on its own: a later compaction would
			// rewrite away a record this one put on both sides.
			snap := filepath.Join(copies, strconv.Itoa(i))
			if err := os.Mkdir(snap, 0o755); err != nil {
				t.Error(err)
				return
			}
			if err := copyFiles(snap, dir); err != nil {
				t.Error(err)
				return
			}
			re, rec, err := OpenDurable(snap, 4, SyncNever, now)
			if err != nil {
				t.Error(err)
				return
			}
			re.CloseWAL()
			if rec.Dropped != 0 {
				t.Errorf("replay after compaction %d = %+v, want nothing dropped", i, rec)
				return
			}
		}
	}()
	const writers = 4
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(certs); i += writers {
				if _, err := st.Publish(certs[i], now); err != nil {
					t.Error(err)
					return
				}
				if i%8 == 0 && !st.Remove(certs[i].Hash()) {
					t.Error("remove failed")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-done
	if err := st.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	re, rec, err := OpenDurable(dir, 4, SyncNever, now)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Torn || rec.Dropped != 0 {
		t.Fatalf("recovery = %+v, want clean", rec)
	}
	sameContents(t, re, st, now, certs)
	if g, w := re.Stats().Tombstones, st.Stats().Tombstones; g != w {
		t.Fatalf("tombstones: got %d want %d", g, w)
	}
}

// TestWALCompactTrigger: a sweep or an eviction compacts the log once
// it holds more than twice the live records (indexed certificates,
// tombstones, retained events), and not before; a committed compaction
// resets the count to the records the base holds.
func TestWALCompactTrigger(t *testing.T) {
	now := time.Now()
	short := core.Between(now.Add(-time.Minute), now.Add(time.Minute))
	long := core.Until(now.Add(time.Hour))
	for _, tc := range []struct {
		name         string
		keep, expire int
		compactions  int64
	}{
		{"log 10 live 4", 4, 6, 1},
		{"log 10 live 5", 5, 5, 0},
	} {
		st, _, err := OpenDurable(t.TempDir(), 4, SyncNever, now)
		if err != nil {
			t.Fatal(err)
		}
		certs := append(walCorpus(t, "trig-keep", tc.keep, long), walCorpus(t, "trig-expire", tc.expire, short)...)
		for _, c := range certs {
			if _, err := st.Publish(c, now); err != nil {
				t.Fatal(err)
			}
		}
		if n := st.Sweep(now.Add(30 * time.Minute)); n != tc.expire {
			t.Fatalf("%s: swept %d, want %d", tc.name, n, tc.expire)
		}
		if ws, _ := st.WALStats(); ws.Compactions != tc.compactions {
			t.Errorf("%s: %d compactions, want %d", tc.name, ws.Compactions, tc.compactions)
		}
		want := int64(tc.keep + tc.expire)
		if tc.compactions > 0 {
			want = int64(tc.keep)
		}
		if got := st.wal.recordCount(); got != want {
			t.Errorf("%s: log counts %d records, want %d", tc.name, got, want)
		}
		if err := st.CloseWAL(); err != nil {
			t.Fatal(err)
		}
	}

	// One eviction among many live certificates: 102 records (100
	// publishes, a removal, a revoke event) against 101 live ones.
	st, _, err := OpenDurable(t.TempDir(), 4, SyncNever, now)
	if err != nil {
		t.Fatal(err)
	}
	certs := walCorpus(t, "trig-evict", 100, long)
	for _, c := range certs {
		if _, err := st.Publish(c, now); err != nil {
			t.Fatal(err)
		}
	}
	victim := certs[0].Hash()
	if n := st.EvictRevoked(func(h []byte, _ sfkey.PublicKey) bool { return bytes.Equal(h, victim) }); n != 1 {
		t.Fatalf("evicted %d, want 1", n)
	}
	if ws, _ := st.WALStats(); ws.Compactions != 0 || st.wal.recordCount() != 102 {
		t.Fatalf("one eviction: %d compactions, %d records; want 0, 102", ws.Compactions, st.wal.recordCount())
	}
	if err := st.CloseWAL(); err != nil {
		t.Fatal(err)
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for in, want := range map[string]SyncPolicy{
		"always": SyncAlways, "interval": SyncInterval, "never": SyncNever,
	} {
		got, err := ParseSyncPolicy(in)
		if err != nil || got != want {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v", in, got, err)
		}
		if got.String() != in {
			t.Errorf("String() = %q, want %q", got.String(), in)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Error("bad policy accepted")
	}
}

// TestWALCRLLapses: a CRL is directory state until it lapses. Sweep
// drops a list whose NotAfter has passed, the next base leaves it out,
// and a restart replays only the list still in force — until that one
// has lapsed too, when replay drops it.
func TestWALCRLLapses(t *testing.T) {
	now := time.Now()
	dir := t.TempDir()
	st, _, err := OpenDurable(dir, 4, SyncNever, now)
	if err != nil {
		t.Fatal(err)
	}
	issuer := sfkey.FromSeed([]byte("wal-lapse-issuer"))
	short := cert.NewRevocationList(issuer, core.Between(now.Add(-time.Minute), now.Add(time.Minute)), []byte("short"))
	long := cert.NewRevocationList(issuer, core.Until(now.Add(time.Hour)), []byte("long"))
	if res := InstallCRLs(cert.NewRevocationStore(), st, nil, []*cert.RevocationList{short, long}, now); res.Installed != 2 {
		t.Fatalf("install = %+v, want 2 installed", res)
	}
	later := now.Add(30 * time.Minute)
	st.Sweep(later)
	if got := st.CRLs(); len(got) != 1 || got[0] != long {
		t.Fatalf("after the sweep the store keeps %d lists, want only the unlapsed one", len(got))
	}
	if err := st.CompactWAL(); err != nil {
		t.Fatal(err)
	}
	var log []byte
	ids, _ := listSegments(dir)
	for _, id := range ids {
		data, err := os.ReadFile(segmentPath(dir, id))
		if err != nil {
			t.Fatal(err)
		}
		log = append(log, data...)
	}
	if bytes.Contains(log, sexp.AppendFrame(nil, crlRecord(short))) || !bytes.Contains(log, sexp.AppendFrame(nil, crlRecord(long))) {
		t.Fatal("the base after the sweep does not hold exactly the unlapsed list")
	}
	if err := st.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	re, rec, err := OpenDurable(dir, 4, SyncNever, later)
	if err != nil {
		t.Fatal(err)
	}
	if got := re.CRLs(); rec.Dropped != 0 || len(got) != 1 || got[0].Hash() != long.Hash() {
		t.Fatalf("replay = %+v with %d lists, want the unlapsed list alone", rec, len(got))
	}
	if err := re.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	re, rec, err = OpenDurable(dir, 4, SyncNever, now.Add(2*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer re.CloseWAL()
	if rec.Dropped != 1 || len(re.CRLs()) != 0 {
		t.Fatalf("replay after both lapsed = %+v with %d lists, want the last one dropped", rec, len(re.CRLs()))
	}
}
