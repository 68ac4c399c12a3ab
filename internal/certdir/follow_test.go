package certdir

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/sexp"
	"repro/internal/sfkey"
)

// pollOnce runs one poll of f's loop from the cursor after, returning
// the cursor to poll from next and how many lists the poll newly
// installed.
func pollOnce(f *CRLFollower, after uint64) (next uint64, installed int, err error) {
	before := f.Stats().Pulled
	s := f.stream()
	b, _, err := s.poll(context.Background(), eventsRequest{after: after, wait: s.hold}, false)
	return b.next, int(f.Stats().Pulled - before), err
}

// A follower installs exactly the CRLs its store lacks, poll by poll,
// and installing bumps the shared proof-cache epoch (that is the whole
// point — a following verifier's cached verdicts die).
func TestCRLFollowerPull(t *testing.T) {
	now := time.Now()
	v := core.Between(now.Add(-time.Minute), now.Add(time.Hour))
	issuer := sfkey.FromSeed([]byte("follow-issuer"))
	_, _, cl := startRevocableDirectory(t)

	rs := cert.NewRevocationStore()
	f := NewCRLFollower(cl, rs)
	f.Interval = 10 * time.Millisecond // an idle poll returns after this hold
	poll := func(after uint64, want int) uint64 {
		t.Helper()
		next, installed, err := pollOnce(f, after)
		if err != nil || installed != want {
			t.Fatalf("poll from %d: installed %d, err %v; want %d", after, installed, err, want)
		}
		return next
	}

	cursor := poll(0, 0)
	rl1 := cert.NewRevocationList(issuer, v, []byte("h1"))
	if err := cl.PushCRL(rl1); err != nil {
		t.Fatal(err)
	}
	epoch := core.SharedProofCache().Epoch()
	cursor = poll(cursor, 1)
	if !rs.Has(rl1.Hash()) {
		t.Fatal("follower store missing the followed CRL")
	}
	if got := core.SharedProofCache().Epoch(); got <= epoch {
		t.Fatalf("install did not bump shared epoch: %d -> %d", epoch, got)
	}

	// A poll with nothing new ships nothing and keeps the cursor.
	if next := poll(cursor, 0); next != cursor {
		t.Fatalf("idle poll moved the cursor %d -> %d", cursor, next)
	}

	rl2 := cert.NewRevocationList(issuer, v, []byte("h2"))
	if err := cl.PushCRL(rl2); err != nil {
		t.Fatal(err)
	}
	poll(cursor, 1)
	if s := f.Stats(); s.Pulled != 2 || s.Rejected != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

// A poll against a dead directory reports to OnError, which
// sf-dbserver's -crl-follow relies on to log the failure; the running
// loop reports too, and keeps retrying.
func TestCRLFollowerPullReportsError(t *testing.T) {
	ts := httptest.NewServer(NewService(NewStore(4)))
	url := ts.URL
	ts.Close()

	f := NewCRLFollower(NewClient(url), cert.NewRevocationStore())
	seen := make(chan error, 16)
	f.OnError = func(err error) { seen <- err }
	_, _, err := pollOnce(f, 0)
	if err == nil {
		t.Fatal("poll of a closed listener succeeded")
	}
	if got := <-seen; got != err {
		t.Fatalf("OnError saw %v, want exactly the poll's error %v", got, err)
	}
	f.Start()
	defer f.Stop()
	select {
	case <-seen:
	case <-time.After(5 * time.Second):
		t.Fatal("the follow loop reported no error against a dead directory")
	}
}

// The Start/Stop loop follows on its own and delivers a CRL pushed
// after it started.
func TestCRLFollowerLoop(t *testing.T) {
	now := time.Now()
	v := core.Between(now.Add(-time.Minute), now.Add(time.Hour))
	issuer := sfkey.FromSeed([]byte("follow-loop-issuer"))
	_, _, cl := startRevocableDirectory(t)

	rs := cert.NewRevocationStore()
	f := NewCRLFollower(cl, rs)
	f.Interval = 20 * time.Millisecond
	f.Start()
	defer f.Stop()

	rl := cert.NewRevocationList(issuer, v, []byte("h"))
	if err := cl.PushCRL(rl); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !rs.Has(rl.Hash()) {
		if time.Now().After(deadline) {
			t.Fatal("follower never installed the CRL")
		}
		time.Sleep(5 * time.Millisecond)
	}
	f.Stop() // idempotent with the deferred Stop
}

// TestCRLFollowerNoTimer: revocation reaches a following verifier as
// soon as the directory installs it, not on a timer. The follower's
// poll is held for up to 30 s; a list pushed meanwhile arrives within
// a second, and Stop ends the held poll at once.
func TestCRLFollowerNoTimer(t *testing.T) {
	now := time.Now()
	v := core.Between(now.Add(-time.Minute), now.Add(time.Hour))
	issuer := sfkey.FromSeed([]byte("follow-notimer-issuer"))
	_, _, cl := startRevocableDirectory(t)

	rs := cert.NewRevocationStore()
	f := NewCRLFollower(cl, rs)
	f.Interval = 30 * time.Second
	f.Start()
	defer f.Stop()
	waitHas := func(rl *cert.RevocationList, within time.Duration) {
		t.Helper()
		deadline := time.Now().Add(within)
		for !rs.Has(rl.Hash()) {
			if time.Now().After(deadline) {
				t.Fatalf("CRL not installed within %s", within)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	// The first poll gets the directory's whole set at once.
	first := cert.NewRevocationList(issuer, v, []byte("first"))
	if err := cl.PushCRL(first); err != nil {
		t.Fatal(err)
	}
	waitHas(first, 5*time.Second)
	time.Sleep(50 * time.Millisecond) // the next poll is now held

	second := cert.NewRevocationList(issuer, v, []byte("second"))
	if err := cl.PushCRL(second); err != nil {
		t.Fatal(err)
	}
	waitHas(second, time.Second)

	time.Sleep(50 * time.Millisecond) // a poll is held again
	start := time.Now()
	f.Stop()
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("Stop took %s with a poll in flight", d)
	}
}

// TestFollowerPacesASpinningDirectory: a directory that answers every
// poll at once with a reset and the same list — as a hostile one can —
// gets a few polls a second from a follower, not a tight loop, and the
// list is verified once: the follower skips a list it already holds
// before any signature work.
func TestFollowerPacesASpinningDirectory(t *testing.T) {
	now := time.Now()
	v := core.Between(now.Add(-time.Minute), now.Add(time.Hour))
	rl := cert.NewRevocationList(sfkey.FromSeed([]byte("spin-issuer")), v, []byte("spin-revoked"))
	reply := sexp.List(sexp.String("events"),
		sexp.List(sexp.String("next"), sexp.String("1")),
		sexp.List(sexp.String("reset")),
		sexp.List(sexp.String("ev"), sexp.String(EventCRL), rl.Sexp())).Canonical()
	var polls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		polls.Add(1)
		w.Write(reply)
	}))
	defer ts.Close()

	rs := cert.NewRevocationStore()
	f := NewCRLFollower(NewClient(ts.URL), rs)
	sigs := sfkey.SigVerifies()
	f.Start()
	time.Sleep(1500 * time.Millisecond)
	f.Stop()
	if n := polls.Load(); n > 5 {
		t.Fatalf("%d polls in 1.5 s against a directory that answers at once", n)
	}
	if !rs.Has(rl.Hash()) || f.Stats().Pulled != 1 {
		t.Fatalf("list not installed once: stats %+v", f.Stats())
	}
	if n := sfkey.SigVerifies() - sigs; n != 1 {
		t.Fatalf("%d signature verifications, want the list's one", n)
	}
}
