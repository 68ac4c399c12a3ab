package certdir

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/principal"
	"repro/internal/sfkey"
	"repro/internal/tag"
)

// --- EventLog ---

// since reads l from a cursor without waiting.
func since(l *EventLog, after uint64) (evs []Event, next uint64, reset bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sinceLocked(after)
}

func TestEventLogCursor(t *testing.T) {
	l := newEventLog(8)
	evs, next, reset := since(l, 0)
	if len(evs) != 0 || next != l.token(0) || reset {
		t.Fatalf("empty log: evs=%d next=%d reset=%v", len(evs), next, reset)
	}
	l.append(EventRemove, []byte("h1"), "", nil)
	l.append(EventRevoke, []byte("h2"), "", nil)
	// Cursor 0 replays the retained tail.
	evs, next, reset = since(l, 0)
	if len(evs) != 2 || next != l.token(2) || reset {
		t.Fatalf("cursor 0: evs=%d next=%d reset=%v", len(evs), next, reset)
	}
	evs, next, reset = since(l, l.token(1))
	if len(evs) != 1 || evs[0].Kind != EventRevoke || string(evs[0].Hash) != "h2" || next != l.token(2) || reset {
		t.Fatalf("cursor 1: evs=%v next=%d reset=%v", evs, next, reset)
	}
	if evs, _, _ := since(l, l.token(2)); len(evs) != 0 {
		t.Fatalf("current cursor returned %d events", len(evs))
	}
}

func TestEventLogOverflowResets(t *testing.T) {
	l := newEventLog(4)
	for i := 0; i < 10; i++ {
		l.append(EventRemove, []byte{byte(i)}, "", nil)
	}
	// Cursor 2 predates the retained tail (only 7..10 survive).
	evs, next, reset := since(l, l.token(2))
	if !reset {
		t.Fatal("lagging cursor did not reset")
	}
	if next != l.token(10) || len(evs) != 4 {
		t.Fatalf("reset answer: %d events next=%d, want 4 retained and token(10)", len(evs), next)
	}
	// A same-boot cursor beyond the emitted count resets too.
	if _, _, reset := since(l, l.token(99)); !reset {
		t.Fatal("future cursor did not reset")
	}
	// Cursor 0 (fresh subscriber) never resets: it has no state the
	// trimmed events could have invalidated.
	if _, _, reset := since(l, 0); reset {
		t.Fatal("fresh cursor reset on a trimmed log")
	}
}

// TestEventLogRestartResets pins the cross-incarnation case: a cursor
// minted by one EventLog must reset against another — even when the
// new incarnation has already emitted MORE events than the cursor's
// sequence, the case a bare sequence comparison would silently
// swallow (delivering events 11.. while events 1..10 of the new life
// were never seen).
func TestEventLogRestartResets(t *testing.T) {
	old := newEventLog(8)
	for i := 0; i < 10; i++ {
		old.append(EventRemove, []byte{byte(i)}, "", nil)
	}
	_, cursor, _ := since(old, 0)

	restarted := newEventLog(8)
	if restarted.boot == old.boot {
		t.Skip("one-in-16-million boot nonce collision")
	}
	for i := 0; i < 12; i++ {
		restarted.append(EventRevoke, []byte{byte(i)}, "", nil)
	}
	evs, next, reset := since(restarted, cursor)
	if !reset {
		t.Fatal("cursor from a previous incarnation did not reset")
	}
	if len(evs) != 8 { // the full retained tail comes along
		t.Fatalf("reset returned %d events, want the retained 8", len(evs))
	}
	if next != restarted.token(12) {
		t.Fatalf("reset cursor = %d, want the new incarnation's position", next)
	}
}

// invalidations are the kinds a request naming none asks for.
var invalidations = []string{EventRemove, EventRevoke}

func TestEventLogLongPoll(t *testing.T) {
	st := NewStore(4)
	st.emitEvent(EventRemove, []byte("x"), "") // seq 1
	done := make(chan []streamRow, 1)
	go func() {
		done <- st.follow(context.Background(), eventsRequest{after: st.events.token(1), wait: 5 * time.Second, kinds: invalidations}).rows
	}()
	// The waiter must block until this append.
	time.Sleep(20 * time.Millisecond)
	st.emitEvent(EventRevoke, []byte("y"), "")
	select {
	case evs := <-done:
		if len(evs) != 1 || string(evs[0].Hash) != "y" {
			t.Fatalf("long poll woke with %v", evs)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("long poll never woke on append")
	}
	// Timeout path: current cursor, nothing appended.
	start := time.Now()
	if evs := st.follow(context.Background(), eventsRequest{after: st.events.token(2), wait: 50 * time.Millisecond, kinds: invalidations}).rows; len(evs) != 0 {
		t.Fatalf("timed-out wait returned %v", evs)
	}
	if time.Since(start) < 40*time.Millisecond {
		t.Fatal("wait returned before its timeout with no events")
	}
}

// TestFollowEndsWithContext: a long poll returns as soon as its
// caller's context is done, not when its wait runs out.
func TestFollowEndsWithContext(t *testing.T) {
	st := NewStore(4)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		st.follow(ctx, eventsRequest{wait: time.Minute, kinds: invalidations})
		close(done)
	}()
	time.Sleep(20 * time.Millisecond)
	start := time.Now()
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("poll outlived its context by 5s")
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("poll took %s to notice its context ended", d)
	}
}

// --- store events ---

func TestStoreEmitsInvalidationEvents(t *testing.T) {
	now := time.Now()
	v := core.Between(now.Add(-time.Minute), now.Add(time.Hour))
	alice := sfkey.FromSeed([]byte("ev-alice"))
	bobP := principal.KeyOf(sfkey.FromSeed([]byte("ev-bob")).Public())
	st := NewStore(4)

	removed := delegate(t, alice, bobP, tag.Prefix("files"), v)
	revoked := delegate(t, alice, bobP, tag.Prefix("mail"), v)
	for _, c := range []*cert.Cert{removed, revoked} {
		if _, err := st.Publish(c, now); err != nil {
			t.Fatal(err)
		}
	}

	st.Remove(removed.Hash())
	rs := cert.NewRevocationStore()
	if _, errs := rs.Add(cert.NewRevocationList(alice, v, revoked.Hash())); errs[0] != nil {
		t.Fatal(errs[0])
	}
	if n := st.EvictRevoked(rs.RevokedAt(now)); n != 1 {
		t.Fatalf("evicted %d, want 1", n)
	}

	// The two publishes are events too (seq 1, 2); the invalidation
	// kinds a prover asks for are the removal and the eviction.
	ans := st.follow(context.Background(), eventsRequest{kinds: invalidations})
	evs, next, reset := ans.rows, ans.next, ans.reset
	if reset || next != st.events.token(4) || len(evs) != 2 {
		t.Fatalf("events: %v next=%d reset=%v, want remove+revoke", evs, next, reset)
	}
	if evs[0].Kind != EventRemove || string(evs[0].Hash) != string(removed.Hash()) {
		t.Fatalf("event 1 = %s %x, want remove of the removed cert", evs[0].Kind, evs[0].Hash)
	}
	if evs[1].Kind != EventRevoke || string(evs[1].Hash) != string(revoked.Hash()) {
		t.Fatalf("event 2 = %s %x, want revoke of the revoked cert", evs[1].Kind, evs[1].Hash)
	}
	// Sweep expiries are not events.
	st.Sweep(now.Add(2 * time.Hour))
	if got := st.events.Emitted(); got != 4 {
		t.Fatalf("sweep emitted events (emitted=%d)", got)
	}
}

// TestEvictRevokedByIssuerSignerMatch: a CRL signed by a stranger must
// not evict another issuer's delegation, even if it names the hash.
func TestEvictRevokedByIssuerSignerMatch(t *testing.T) {
	now := time.Now()
	v := core.Between(now.Add(-time.Minute), now.Add(time.Hour))
	alice := sfkey.FromSeed([]byte("sm-alice"))
	mallory := sfkey.FromSeed([]byte("sm-mallory"))
	bobP := principal.KeyOf(sfkey.FromSeed([]byte("sm-bob")).Public())
	st := NewStore(4)
	c := delegate(t, alice, bobP, tag.Prefix("files"), v)
	if _, err := st.Publish(c, now); err != nil {
		t.Fatal(err)
	}

	rs := cert.NewRevocationStore()
	if _, errs := rs.Add(cert.NewRevocationList(mallory, v, c.Hash())); errs[0] != nil {
		t.Fatal(errs[0])
	}
	if n := st.EvictRevoked(rs.RevokedAt(now)); n != 0 {
		t.Fatalf("a stranger's CRL evicted %d certificates", n)
	}
	if _, errs := rs.Add(cert.NewRevocationList(alice, v, c.Hash())); errs[0] != nil {
		t.Fatal(errs[0])
	}
	if n := st.EvictRevoked(rs.RevokedAt(now)); n != 1 {
		t.Fatalf("the issuer's CRL evicted %d certificates, want 1", n)
	}
	if !st.Tombstoned(c.Hash()) {
		t.Fatal("revocation eviction left no tombstone")
	}
}

// --- service endpoints ---

// startRevocableDirectory is startDirectory with the revocation
// endpoints enabled.
func startRevocableDirectory(t *testing.T) (*Store, *cert.RevocationStore, *Client) {
	t.Helper()
	st := NewStore(4)
	svc := NewService(st)
	svc.Revocations = cert.NewRevocationStore()
	ts := httptest.NewServer(svc)
	t.Cleanup(ts.Close)
	return st, svc.Revocations, NewClient(ts.URL)
}

func TestAdminCRLEndpoint(t *testing.T) {
	now := time.Now()
	v := core.Between(now.Add(-time.Minute), now.Add(time.Hour))
	alice := sfkey.FromSeed([]byte("admin-alice"))
	bobP := principal.KeyOf(sfkey.FromSeed([]byte("admin-bob")).Public())
	st, rs, cl := startRevocableDirectory(t)

	c := delegate(t, alice, bobP, tag.Prefix("files"), v)
	if err := cl.Publish(c); err != nil {
		t.Fatal(err)
	}

	rl := cert.NewRevocationList(alice, v, c.Hash())
	if err := cl.PushCRL(rl); err != nil {
		t.Fatal(err)
	}
	// Installed, evicted immediately (no sweep needed), idempotent.
	if st.Len() != 0 {
		t.Fatalf("revoked certificate still stored (%d)", st.Len())
	}
	if !rs.Has(rl.Hash()) {
		t.Fatal("CRL not installed in the revocation store")
	}
	if err := cl.PushCRL(rl); err != nil {
		t.Fatalf("duplicate push not idempotent: %v", err)
	}
	// The eviction emitted an event for subscribers.
	hashes, _, reset, err := cl.Events(context.Background(), 0, 0)
	if err != nil || reset {
		t.Fatalf("events: %v reset=%v", err, reset)
	}
	if len(hashes) != 1 || string(hashes[0]) != string(c.Hash()) {
		t.Fatalf("events carried %d hashes, want the revoked cert", len(hashes))
	}
}

// TestCRLStreamCursorDiff: a crl read from a cursor carries exactly
// the lists kept after it. A fresh cursor gets the whole set; the
// cursor it returns gets only what came later; a current cursor gets
// nothing.
func TestCRLStreamCursorDiff(t *testing.T) {
	now := time.Now()
	v := core.Between(now.Add(-time.Minute), now.Add(time.Hour))
	alice := sfkey.FromSeed([]byte("crls-alice"))
	st, rs, cl := startRevocableDirectory(t)
	read := func(after uint64) streamBatch {
		t.Helper()
		r, err := cl.follow(context.Background(), eventsRequest{after: after, kinds: []string{EventCRL}})
		if err != nil || r.reset {
			t.Fatalf("crl read from %d: reset=%v err=%v", after, r.reset, err)
		}
		return r
	}

	a := cert.NewRevocationList(alice, v, []byte("hash-1-32-bytes-hash-1-32-bytes-"))
	b := cert.NewRevocationList(alice, v, []byte("hash-2-32-bytes-hash-2-32-bytes-"))
	InstallCRLs(rs, st, []*cert.RevocationList{a}, now)
	first := read(0)
	if len(first.lists()) != 1 || first.lists()[0].Hash() != a.Hash() {
		t.Fatalf("fresh cursor = %d lists, want only a", len(first.lists()))
	}
	InstallCRLs(rs, st, []*cert.RevocationList{b}, now)
	if all := read(0); len(all.lists()) != 2 {
		t.Fatalf("fresh cursor = %d lists, want a and b", len(all.lists()))
	}
	diff := read(first.next)
	if len(diff.lists()) != 1 || diff.lists()[0].Hash() != b.Hash() {
		t.Fatalf("read after a = %d lists, want only b", len(diff.lists()))
	}
	if idle := read(diff.next); len(idle.lists()) != 0 || idle.next != diff.next {
		t.Fatalf("current cursor = %d lists, cursor %d -> %d, want none and unchanged", len(idle.lists()), diff.next, idle.next)
	}
}

// TestCRLGossipPropagates: a CRL installed at directory A reaches
// directory B in one poll of B's follow of A, evicting the revoked
// certificate there — revocation travels with the credentials, not
// behind them.
func TestCRLGossipPropagates(t *testing.T) {
	now := time.Now()
	v := core.Between(now.Add(-time.Minute), now.Add(time.Hour))
	alice := sfkey.FromSeed([]byte("gossip-crl-alice"))
	bobP := principal.KeyOf(sfkey.FromSeed([]byte("gossip-crl-bob")).Public())

	stA, _, clA := startRevocableDirectory(t)
	stB, rsB, clB := startRevocableDirectory(t)

	// The same delegation lives at both directories.
	c := delegate(t, alice, bobP, tag.Prefix("files"), v)
	if err := clA.Publish(c); err != nil {
		t.Fatal(err)
	}
	if err := clB.Publish(c); err != nil {
		t.Fatal(err)
	}

	// B replicates from A (no loops running — the test drives one
	// poll of B's follow by hand for determinism).
	repB := NewReplicator(stB, []*Client{clA})
	repB.Revocations = rsB

	// Revoke at A through the admin endpoint: no restart, no sweep.
	rl := cert.NewRevocationList(alice, v, c.Hash())
	if err := clA.PushCRL(rl); err != nil {
		t.Fatal(err)
	}
	if stA.Len() != 0 {
		t.Fatal("revocation did not evict at A")
	}

	// One poll of A's stream at B: the CRL arrives and evicts, and the
	// answer carries no publish of the revoked delegation to resurrect
	// it (A no longer holds it), nor does an anti-entropy round after.
	ans, err := clA.follow(context.Background(), eventsRequest{kinds: []string{EventPublish, EventRemove, EventCRL}})
	if err != nil {
		t.Fatal(err)
	}
	repB.apply(clA, true, ans)
	if _, err := repB.Converge(); err != nil {
		t.Fatal(err)
	}
	if !rsB.Has(rl.Hash()) {
		t.Fatal("CRL did not reach B in one poll")
	}
	if stB.Len() != 0 {
		t.Fatalf("B still stores %d certificates after the CRL round", stB.Len())
	}
	if !stB.Tombstoned(c.Hash()) {
		t.Fatal("B holds no tombstone for the revoked certificate")
	}
	if st := repB.Stats(); st.CRLsPulled != 1 {
		t.Fatalf("CRLsPulled = %d, want 1", st.CRLsPulled)
	}

	// A forged CRL (tampered signature) from a peer is rejected.
	forged := *rl
	forged.Signature = append([]byte(nil), rl.Signature...)
	forged.Signature[0] ^= 1
	if _, errs := rsB.Add(&forged); errs[0] == nil {
		t.Fatal("forged CRL verified")
	}
}

// TestInstallCRLsRefusesForgedCopy: a forged copy of a list already
// held is refused on its signature, not skipped as held: its hash is
// its own, not the original's.
func TestInstallCRLsRefusesForgedCopy(t *testing.T) {
	now := time.Now()
	alice := sfkey.FromSeed([]byte("forged-copy-alice"))
	rl := cert.NewRevocationList(alice, core.Between(now.Add(-time.Minute), now.Add(time.Hour)),
		[]byte("hash-f-32-bytes-hash-f-32-bytes-"))
	rs := cert.NewRevocationStore()
	if res := InstallCRLs(rs, nil, []*cert.RevocationList{rl}, now); res.Installed != 1 {
		t.Fatalf("original: %+v, want installed", res)
	}
	forged := *rl
	forged.Signature = append([]byte(nil), rl.Signature...)
	forged.Signature[0] ^= 1
	res := InstallCRLs(rs, nil, []*cert.RevocationList{&forged}, now)
	if res.Rejected != 1 || res.Installed != 0 || res.Err == nil {
		t.Fatalf("forged copy: %+v, want rejected", res)
	}
	if len(rs.Lists()) != 1 {
		t.Fatalf("store holds %d lists, want the original only", len(rs.Lists()))
	}
}
