package certdir

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
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

// TestEventsNoKindReplyUnchanged: a request naming no kind gets the
// reply grammar provers have always read — remove and revoke rows,
// byte for byte — and never a crl row, even when a CRL install is what
// caused the revoke.
func TestEventsNoKindReplyUnchanged(t *testing.T) {
	now := time.Now()
	v := core.Between(now.Add(-time.Minute), now.Add(time.Hour))
	alice := sfkey.FromSeed([]byte("nokind-alice"))
	bobP := principal.KeyOf(sfkey.FromSeed([]byte("nokind-bob")).Public())
	st := NewStore(4)
	svc := NewService(st)
	svc.Revocations = cert.NewRevocationStore()
	ts := httptest.NewServer(svc)
	defer ts.Close()

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
	want := canon("events", []any{"next", cursor(2)},
		[]any{"ev", "remove", string(certs[0].Hash())},
		[]any{"ev", "revoke", string(certs[1].Hash())})
	if got := postEvents(t, ts.URL, canon("events", "0")); string(got) != want {
		t.Fatalf("no-kind reply\n got %q\nwant %q", got, want)
	}

	// A CRL install: a crl event, then the revoke it caused.
	InstallCRLs(svc.Revocations, st, nil, []*cert.RevocationList{cert.NewRevocationList(alice, v, certs[2].Hash())}, now)
	want = canon("events", []any{"next", cursor(4)}, []any{"ev", "revoke", string(certs[2].Hash())})
	if got := postEvents(t, ts.URL, canon("events", cursor(2))); string(got) != want {
		t.Fatalf("no-kind reply after a CRL install\n got %q\nwant %q", got, want)
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
	start, err := cl.follow(context.Background(), 0, 0, EventCRL)
	if err != nil {
		t.Fatal(err)
	}

	got := make(chan streamBatch, 1)
	go func() {
		r, err := cl.follow(context.Background(), start.next, 5*time.Second, EventCRL)
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
		t.Fatalf("crl-only poll returned on other kinds: %d lists, cursor %d -> %d", len(r.crls), start.next, r.next)
	case <-time.After(200 * time.Millisecond):
	}

	rl := cert.NewRevocationList(alice, v, []byte("crlonly-revoked"))
	InstallCRLs(rs, st, nil, []*cert.RevocationList{rl}, now)
	select {
	case r := <-got:
		if r.reset || len(r.crls) != 1 || r.crls[0].Hash() != rl.Hash() || len(r.events) != 0 {
			t.Fatalf("crl-only poll answered reset=%v %d lists %d other events, want exactly the new list", r.reset, len(r.crls), len(r.events))
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
		if res := InstallCRLs(revs, st, nil, rls, now); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	read := func(st *Store, after uint64) streamBatch {
		return st.follow(context.Background(), after, []string{EventCRL}, 0)
	}
	holds := func(what string, b streamBatch, reset bool, want ...*cert.RevocationList) {
		t.Helper()
		got := map[[32]byte]bool{}
		for _, rl := range b.crls {
			got[rl.Hash()] = true
		}
		ok := b.reset == reset && len(b.crls) == len(want)
		for _, rl := range want {
			ok = ok && got[rl.Hash()]
		}
		if !ok {
			t.Fatalf("%s: reset=%v with %d lists, want reset=%v with %d", what, b.reset, len(b.crls), reset, len(want))
		}
	}

	t.Run("lag past the ring", func(t *testing.T) {
		st, revs := NewStore(4), cert.NewRevocationStore()
		st.events.max = 4
		install(st, revs, lists[0])
		cursor := read(st, 0).next
		for i := 0; i < 5; i++ {
			st.emitEvent(EventRemove, []byte{byte(i)})
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
}

// TestEventsPollEndsWithCaller: a long poll the caller abandons stops
// holding the directory's handler, so the directory drains at once.
func TestEventsPollEndsWithCaller(t *testing.T) {
	ts := httptest.NewServer(NewService(NewStore(4)))
	cl := NewClient(ts.URL)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		cl.follow(ctx, 0, 30*time.Second, EventCRL)
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
