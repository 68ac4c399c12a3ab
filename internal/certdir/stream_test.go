package certdir

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/principal"
	"repro/internal/sfkey"
	"repro/internal/tag"
)

// postEvents posts a raw events request and returns the raw reply.
func postEvents(t *testing.T, url, body string) []byte {
	t.Helper()
	resp, err := http.Post(url+PathEvents, "text/plain", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("events %s: status %d, err %v: %s", body, resp.StatusCode, err, reply)
	}
	return reply
}

// canon renders a reply the way the wire grammar spells it, from
// nothing but the canonical S-expression rules: a list is its members
// in parentheses, an atom is <length>:<octets>.
func canon(items ...any) string {
	s := "("
	for _, it := range items {
		switch v := it.(type) {
		case string:
			s += fmt.Sprintf("%d:%s", len(v), v)
		case []any:
			s += canon(v...)
		}
	}
	return s + ")"
}

// TestEventsNoKindRefused: a request naming no kind is refused with a
// 400, and the request provers send instead, (kinds remove revoke), is
// answered with remove and revoke rows under the store's id, byte for
// byte, and never a crl row, even when a CRL install is what caused the
// revoke. Client.Events reads exactly those rows' hashes.
func TestEventsNoKindRefused(t *testing.T) {
	now := time.Now()
	v := core.Between(now.Add(-time.Minute), now.Add(time.Hour))
	alice := sfkey.FromSeed([]byte("nokind-alice"))
	bobP := principal.KeyOf(sfkey.FromSeed([]byte("nokind-bob")).Public())
	st := NewStore(4)
	svc := NewService(st)
	svc.Revocations = cert.NewRevocationStore()
	ts := httptest.NewServer(svc)
	defer ts.Close()

	for _, body := range []string{canon("events", "0"), canon("events", "0", []any{"wait", "10"})} {
		resp, err := http.Post(ts.URL+PathEvents, "text/plain", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("no-kind request %q: status %d, want 400", body, resp.StatusCode)
		}
	}

	var certs []*cert.Cert
	for _, p := range []string{"a", "b", "c"} {
		c := delegate(t, alice, bobP, tag.Prefix(p), v)
		if _, err := st.Publish(c, now); err != nil {
			t.Fatal(err)
		}
		certs = append(certs, c)
	}
	st.Remove(certs[0].Hash())
	direct := cert.NewRevocationStore()
	direct.Add(cert.NewRevocationList(alice, v, certs[1].Hash()))
	if n := st.EvictRevoked(direct.RevokedAt(now)); n != 1 {
		t.Fatalf("evicted %d, want 1", n)
	}
	cursor := func(seq uint64) string { return strconv.FormatUint(st.events.token(seq), 10) }
	invalidations := []any{"kinds", "remove", "revoke"}
	// Three publishes (seq 1-3), then the removal and the eviction.
	want := canon("events", []any{"next", cursor(5)}, []any{"id", st.id},
		[]any{"ev", "remove", string(certs[0].Hash())},
		[]any{"ev", "revoke", string(certs[1].Hash())})
	if got := postEvents(t, ts.URL, canon("events", "0", invalidations)); string(got) != want {
		t.Fatalf("invalidation reply\n got %q\nwant %q", got, want)
	}

	// A CRL install: a crl event, then the revoke it caused.
	InstallCRLs(svc.Revocations, st, []*cert.RevocationList{cert.NewRevocationList(alice, v, certs[2].Hash())}, now)
	want = canon("events", []any{"next", cursor(7)}, []any{"id", st.id}, []any{"ev", "revoke", string(certs[2].Hash())})
	if got := postEvents(t, ts.URL, canon("events", cursor(5), invalidations)); string(got) != want {
		t.Fatalf("invalidation reply after a CRL install\n got %q\nwant %q", got, want)
	}
	hashes, next, reset, err := NewClient(ts.URL).Events(context.Background(), 0, 0)
	if err != nil || reset || strconv.FormatUint(next, 10) != cursor(7) || len(hashes) != 3 ||
		!bytes.Equal(hashes[0], certs[0].Hash()) || !bytes.Equal(hashes[1], certs[1].Hash()) || !bytes.Equal(hashes[2], certs[2].Hash()) {
		t.Fatalf("Events = %d hashes, next %d, reset %v, err %v", len(hashes), next, reset, err)
	}
}

// TestCRLOnlyPollIgnoresOtherKinds: a long poll that asked only for
// crl keeps waiting while removals and publishes happen, and answers
// with the list the moment one is installed.
func TestCRLOnlyPollIgnoresOtherKinds(t *testing.T) {
	now := time.Now()
	v := core.Between(now.Add(-time.Minute), now.Add(time.Hour))
	alice := sfkey.FromSeed([]byte("crlonly-alice"))
	bobP := principal.KeyOf(sfkey.FromSeed([]byte("crlonly-bob")).Public())
	st, rs, cl := startRevocableDirectory(t)
	start, err := cl.follow(context.Background(), eventsRequest{kinds: []string{EventCRL}})
	if err != nil {
		t.Fatal(err)
	}

	got := make(chan streamBatch, 1)
	go func() {
		r, err := cl.follow(context.Background(), eventsRequest{after: start.next, wait: 5 * time.Second, kinds: []string{EventCRL}})
		if err != nil {
			t.Error(err)
		}
		got <- r
	}()
	time.Sleep(20 * time.Millisecond)
	for _, p := range []string{"x", "y"} {
		c := delegate(t, alice, bobP, tag.Prefix(p), v)
		if err := cl.Publish(c); err != nil {
			t.Fatal(err)
		}
		if !st.Remove(c.Hash()) {
			t.Fatal("remove failed")
		}
	}
	select {
	case r := <-got:
		t.Fatalf("crl-only poll returned on other kinds: %d lists, cursor %d -> %d", len(r.lists()), start.next, r.next)
	case <-time.After(200 * time.Millisecond):
	}

	rl := cert.NewRevocationList(alice, v, []byte("crlonly-revoked"))
	InstallCRLs(rs, st, []*cert.RevocationList{rl}, now)
	select {
	case r := <-got:
		if r.reset || len(r.lists()) != 1 || r.lists()[0].Hash() != rl.Hash() || len(r.rows)-len(r.lists()) != 0 {
			t.Fatalf("crl-only poll answered reset=%v %d lists %d other events, want exactly the new list", r.reset, len(r.lists()), len(r.rows)-len(r.lists()))
		}
	case <-time.After(time.Second):
		t.Fatal("crl-only poll did not answer the install within 1s")
	}
}

// TestCRLStreamResets: a cursor the stream cannot continue — it lagged
// past the retained tail, or the directory restarted without its
// journal — gets a reset carrying the whole CRL set. A durable
// directory's restart is continued instead: the cursor gets every list
// installed after it.
func TestCRLStreamResets(t *testing.T) {
	now := time.Now()
	v := core.Between(now.Add(-time.Minute), now.Add(time.Hour))
	alice := sfkey.FromSeed([]byte("resets-alice"))
	lists := make([]*cert.RevocationList, 3)
	for i := range lists {
		lists[i] = cert.NewRevocationList(alice, v, []byte{byte(i)})
	}
	install := func(st *Store, revs *cert.RevocationStore, rls ...*cert.RevocationList) {
		if res := InstallCRLs(revs, st, rls, now); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	read := func(st *Store, after uint64) streamBatch {
		return st.follow(context.Background(), eventsRequest{after: after, kinds: []string{EventCRL}})
	}
	holds := func(what string, b streamBatch, reset bool, want ...*cert.RevocationList) {
		t.Helper()
		got := map[[32]byte]bool{}
		for _, rl := range b.lists() {
			got[rl.Hash()] = true
		}
		ok := b.reset == reset && len(b.lists()) == len(want)
		for _, rl := range want {
			ok = ok && got[rl.Hash()]
		}
		if !ok {
			t.Fatalf("%s: reset=%v with %d lists, want reset=%v with %d", what, b.reset, len(b.lists()), reset, len(want))
		}
	}

	t.Run("lag past the ring", func(t *testing.T) {
		st, revs := NewStore(4), cert.NewRevocationStore()
		st.events.max = 4
		install(st, revs, lists[0])
		cursor := read(st, 0).next
		for i := 0; i < 5; i++ {
			st.emitEvent(EventRemove, []byte{byte(i)}, "")
		}
		install(st, revs, lists[1])
		holds("lagging cursor", read(st, cursor), true, lists[0], lists[1])
	})

	t.Run("memory restart", func(t *testing.T) {
		st, revs := NewStore(4), cert.NewRevocationStore()
		install(st, revs, lists[0])
		cursor := read(st, 0).next
		restarted := NewStore(4)
		if restarted.events.boot == st.events.boot {
			t.Skip("one-in-16-million boot nonce collision")
		}
		install(restarted, cert.NewRevocationStore(), lists[0], lists[1])
		holds("cursor from before the restart", read(restarted, cursor), true, lists[0], lists[1])
	})

	t.Run("durable restart", func(t *testing.T) {
		dir := t.TempDir()
		st, _, err := OpenDurable(dir, 4, SyncNever, now)
		if err != nil {
			t.Fatal(err)
		}
		install(st, cert.NewRevocationStore(), lists[0])
		cursor := read(st, 0).next
		install(st, cert.NewRevocationStore(), lists[1])
		if err := st.CloseWAL(); err != nil {
			t.Fatal(err)
		}
		re, _, err := OpenDurable(dir, 4, SyncNever, now)
		if err != nil {
			t.Fatal(err)
		}
		defer re.CloseWAL()
		revs := cert.NewRevocationStore()
		install(re, revs, re.CRLs()...) // sf-certd's boot install
		install(re, revs, lists[2])
		holds("cursor from before the restart", read(re, cursor), false, lists[1], lists[2])
	})

	// The publish kind is journaled inside each publish's own record,
	// and a compaction folds the retained publish events into the
	// certificates' records of its base: a cursor from before the
	// restart continues with exactly the publishes after it, whether
	// they were journaled in the base, in the active segment, or after
	// the restart.
	t.Run("durable restart, publish kind", func(t *testing.T) {
		dir := t.TempDir()
		bobP := principal.KeyOf(sfkey.FromSeed([]byte("resets-bob")).Public())
		certs := make([]*cert.Cert, 4)
		for i := range certs {
			certs[i] = delegate(t, alice, bobP, tag.Literal(strconv.Itoa(i)), v)
		}
		st, _, err := OpenDurable(dir, 4, SyncNever, now)
		if err != nil {
			t.Fatal(err)
		}
		publish := func(st *Store, cs ...*cert.Cert) {
			for _, c := range cs {
				if _, err := st.Publish(c, now); err != nil {
					t.Fatal(err)
				}
			}
		}
		publish(st, certs[0])
		cursor := st.follow(context.Background(), eventsRequest{kinds: []string{EventPublish}}).next
		publish(st, certs[1])
		if err := st.CompactWAL(); err != nil {
			t.Fatal(err)
		}
		publish(st, certs[2])
		if err := st.CloseWAL(); err != nil {
			t.Fatal(err)
		}
		re, _, err := OpenDurable(dir, 4, SyncNever, now)
		if err != nil {
			t.Fatal(err)
		}
		defer re.CloseWAL()
		publish(re, certs[3])
		b := re.follow(context.Background(), eventsRequest{after: cursor, kinds: []string{EventPublish}})
		var got []string
		for _, row := range b.rows {
			got = append(got, string(row.cert.Hash()))
		}
		want := []string{string(certs[1].Hash()), string(certs[2].Hash()), string(certs[3].Hash())}
		if b.reset || !slices.Equal(got, want) {
			t.Fatalf("cursor from before the restart: reset=%v with %d publishes, want no reset and the 3 after it in order", b.reset, len(got))
		}
	})

	// The newest events are publishes of certificates that expire, and
	// the sweep that drops them compacts: the base still records the
	// head, so the events after the restart take new sequence numbers
	// and the cursor at the old head gets every one of them.
	t.Run("durable restart, head publishes swept", func(t *testing.T) {
		dir := t.TempDir()
		bobP := principal.KeyOf(sfkey.FromSeed([]byte("resets-bob")).Public())
		mint := func(name string, v core.Validity) *cert.Cert {
			return delegate(t, alice, bobP, tag.Literal(name), v)
		}
		st, _, err := OpenDurable(dir, 4, SyncNever, now)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []*cert.Cert{mint("kept", v), mint("brief-0", core.Between(now.Add(-time.Minute), now.Add(time.Second))),
			mint("brief-1", core.Between(now.Add(-time.Minute), now.Add(time.Second)))} {
			if _, err := st.Publish(c, now); err != nil {
				t.Fatal(err)
			}
		}
		cursor := st.follow(context.Background(), eventsRequest{kinds: []string{EventPublish}}).next
		later := now.Add(2 * time.Second)
		if records := st.wal.recordCount(); st.Sweep(later) != 2 || st.wal.recordCount() >= records {
			t.Fatal("the sweep dropped no certificates or did not compact")
		}
		if err := st.CloseWAL(); err != nil {
			t.Fatal(err)
		}
		re, _, err := OpenDurable(dir, 4, SyncNever, later)
		if err != nil {
			t.Fatal(err)
		}
		defer re.CloseWAL()
		var want []string
		for i := range 3 {
			c := mint("after-"+strconv.Itoa(i), v)
			if _, err := re.Publish(c, later); err != nil {
				t.Fatal(err)
			}
			want = append(want, string(c.Hash()))
		}
		b := re.follow(context.Background(), eventsRequest{after: cursor, kinds: []string{EventPublish}})
		var got []string
		for _, row := range b.rows {
			got = append(got, string(row.cert.Hash()))
		}
		if b.reset || !slices.Equal(got, want) {
			t.Fatalf("cursor at the old head: reset=%v with %d publishes, want no reset and the %d after the restart in order", b.reset, len(got), len(want))
		}
	})
}

// TestEventsPollEndsWithCaller: a long poll the caller abandons stops
// holding the directory's handler, so the directory drains at once.
func TestEventsPollEndsWithCaller(t *testing.T) {
	ts := httptest.NewServer(NewService(NewStore(4)))
	cl := NewClient(ts.URL)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		cl.follow(ctx, eventsRequest{wait: 30 * time.Second, kinds: []string{EventCRL}})
		close(done)
	}()
	time.Sleep(50 * time.Millisecond) // the poll is held
	cancel()
	<-done
	start := time.Now()
	ts.Close() // waits for every handler to return
	if d := time.Since(start); d > time.Second {
		t.Fatalf("the directory held an abandoned poll for %s", d)
	}
}

// TestFilteredPollSurvivesPublishFlood: publishes dominate the ring,
// and twice DefaultEventLogSize of them pass while a remove-only
// subscription and a crl-only follower hold polls. Neither may see a
// reset — a held poll moves past the kinds it did not ask for — and
// each gets the removal or the list made after the flood. Under the
// race detector the ring shrinks to 256 events and the flood with it,
// as raceEnabled scales the anti-entropy tests: signing and verifying
// 8 192 certificates there takes longer than the race job's soak of
// this test may, and a held poll wakes the same way however big the
// ring is.
func TestFilteredPollSurvivesPublishFlood(t *testing.T) {
	now := time.Now()
	v := core.Between(now.Add(-time.Minute), now.Add(time.Hour))
	alice := sfkey.FromSeed([]byte("flood-alice"))
	bobP := principal.KeyOf(sfkey.FromSeed([]byte("flood-bob")).Public())
	st, _, cl := startRevocableDirectory(t)
	if raceEnabled {
		st.events.max = 256
	}
	target := delegate(t, alice, bobP, tag.Prefix("target"), v)
	if _, err := st.Publish(target, now); err != nil {
		t.Fatal(err)
	}
	flood := make([]*cert.Cert, 2*st.events.max)
	for i := range flood {
		flood[i] = delegate(t, alice, bobP, tag.Literal(strconv.Itoa(i)), v)
	}

	// A removal and a list before the flood, so that each follower's
	// first answer moves it off the fresh cursor, which never resets.
	early := delegate(t, alice, bobP, tag.Prefix("early"), v)
	if _, err := st.Publish(early, now); err != nil || !st.Remove(early.Hash()) {
		t.Fatalf("early removal: %v", err)
	}
	InstallCRLs(cert.NewRevocationStore(), st, []*cert.RevocationList{cert.NewRevocationList(alice, v, []byte("flood-early"))}, now)

	// follow runs one filtered follower until it sees what done wants,
	// reporting every reset.
	type seen struct {
		mu              sync.Mutex
		answers, resets int
		done            bool
	}
	follow := func(ctx context.Context, s *seen, kind string, done func(streamBatch) bool) {
		streamFollower{client: cl, kinds: []string{kind}, hold: 5 * time.Second, apply: func(_ bool, b streamBatch) {
			s.mu.Lock()
			defer s.mu.Unlock()
			s.answers++
			if b.reset {
				s.resets++
			}
			s.done = s.done || done(b)
		}}.run(ctx)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var removes, crls seen
	rl := cert.NewRevocationList(alice, v, []byte("flood-revoked"))
	go follow(ctx, &removes, EventRemove, func(b streamBatch) bool {
		return len(b.rows) == 1 && string(b.rows[0].Hash) == string(target.Hash())
	})
	go follow(ctx, &crls, EventCRL, func(b streamBatch) bool {
		return len(b.lists()) == 1 && b.lists()[0].Hash() == rl.Hash()
	})
	for _, s := range []*seen{&removes, &crls} {
		waitUntil(t, "the first answer", func() bool {
			s.mu.Lock()
			defer s.mu.Unlock()
			return s.answers > 0
		})
	}
	time.Sleep(50 * time.Millisecond) // both polls are held again, past cursor 0

	for _, c := range flood {
		if _, err := st.Publish(c, now); err != nil {
			t.Fatal(err)
		}
	}
	if !st.Remove(target.Hash()) {
		t.Fatal("remove failed")
	}
	if res := InstallCRLs(cert.NewRevocationStore(), st, []*cert.RevocationList{rl}, now); res.Installed != 1 {
		t.Fatalf("install: %+v", res)
	}
	for _, s := range []*seen{&removes, &crls} {
		waitUntil(t, "the record made after the flood", func() bool {
			s.mu.Lock()
			defer s.mu.Unlock()
			return s.done
		})
		s.mu.Lock()
		if s.resets != 0 {
			t.Errorf("a filtered follower saw %d resets during a publish flood", s.resets)
		}
		s.mu.Unlock()
	}
}
