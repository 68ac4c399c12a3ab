package certdir

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/principal"
	"repro/internal/prover"
	"repro/internal/sexp"
	"repro/internal/sfkey"
	"repro/internal/tag"
)

// scriptedDirectory is a stand-in directory whose events endpoint
// answers each poll with the next reply the test hands it (nil fails
// the poll with a 503) and, while it has none, holds the poll until the
// asker gives up, as an idle directory holds a long poll.
type scriptedDirectory struct {
	replies chan []byte
	polls   atomic.Int64
}

func newScriptedDirectory(t *testing.T) (*scriptedDirectory, *Client) {
	d := &scriptedDirectory{replies: make(chan []byte, 4)}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		d.polls.Add(1)
		io.Copy(io.Discard, r.Body) // so the server sees the asker give up
		select {
		case reply := <-d.replies:
			if reply == nil {
				http.Error(w, "scripted failure", http.StatusServiceUnavailable)
				return
			}
			w.Write(reply)
		case <-r.Context().Done():
		}
	}))
	t.Cleanup(ts.Close)
	return d, NewClient(ts.URL)
}

// invalidationsReply encodes an events answer with cursor next, a reset
// if asked, and one revoke row per hash.
func invalidationsReply(next uint64, reset bool, revoked ...[]byte) []byte {
	kids := []sexp.Sexp{sexp.String("events"), sexp.List(sexp.String("next"), sexp.String(strconv.FormatUint(next, 10)))}
	if reset {
		kids = append(kids, sexp.List(sexp.String("reset")))
	}
	for _, h := range revoked {
		kids = append(kids, sexp.List(sexp.String("ev"), sexp.String(EventRevoke), sexp.Atom(h)))
	}
	return sexp.List(kids...).Canonical()
}

// TestFollowInvalidationsStallPause: a directory that answers every
// poll at once without progress costs a prover's subscription a few
// polls a second, not a tight loop that bumps the cache's epoch on
// every answer (in a gateway that cache is the process-wide one). Each
// case trips one of the follower's two pauses alone: a reset that
// follows a reset (the cursor moves on every answer), and an answer
// that came back early with the cursor it was asked from.
func TestFollowInvalidationsStallPause(t *testing.T) {
	t.Parallel() // it waits out a window; both cases share it
	type stall struct {
		name  string
		reply func(poll int64) []byte
		polls atomic.Int64
		cache *core.ProofCache
		sub   *prover.Subscription
	}
	cases := []*stall{
		{name: "always reset", reply: func(poll int64) []byte { return invalidationsReply(uint64(poll), true) }},
		{name: "no progress", reply: func(int64) []byte { return invalidationsReply(7, false) }},
	}
	for _, c := range cases {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Write(c.reply(c.polls.Add(1)))
		}))
		defer ts.Close()
		c.cache = core.NewProofCache(8)
		c.sub = prover.New().SubscribeWait(NewClient(ts.URL), c.cache, 2*time.Second)
	}
	time.Sleep(1200 * time.Millisecond)
	for _, c := range cases {
		c.sub.Stop()
		<-c.sub.Done()
		if n, bumps := c.polls.Load(), c.cache.Epoch(); n > 5 || bumps > 5 {
			t.Errorf("%s: %d polls and %d epoch bumps in 1.2 s against a directory that answers at once", c.name, n, bumps)
		}
	}
}

// TestFollowInvalidationsInvalidatesAndResets: a prover's subscription
// survives a failed poll, drops the edge a revoke row names (the proof
// it carried is then not found), and on a reset bumps the cache epoch
// and counts EventResets.
func TestFollowInvalidationsInvalidatesAndResets(t *testing.T) {
	t.Parallel() // its failed poll waits out the one-second retry
	now := time.Now()
	v := core.Between(now.Add(-time.Minute), now.Add(time.Hour))
	want := tag.Prefix("files")
	alice := sfkey.FromSeed([]byte("subscribe-alice"))
	aliceP := principal.KeyOf(alice.Public())
	bobP := principal.KeyOf(sfkey.FromSeed([]byte("subscribe-bob")).Public())
	c := delegate(t, alice, bobP, want, v)

	p := prover.New()
	p.AddProof(c)
	if _, err := p.FindProof(bobP, aliceP, want, now); err != nil {
		t.Fatal(err)
	}
	cache := core.NewProofCache(64)
	dir, client := newScriptedDirectory(t)
	sub := p.SubscribeWait(client, cache, 2*time.Second)
	defer sub.Stop()

	// A failed poll must not end the loop; the revoke row after it is
	// still applied.
	dir.replies <- nil
	dir.replies <- invalidationsReply(1, false, c.Hash())
	waitUntil(t, "the subscription to drop the revoked edge", func() bool { return p.EdgeCount() == 0 })
	if n := dir.polls.Load(); n < 2 {
		t.Fatalf("%d polls, want the failed one and the one after it", n)
	}
	if _, err := p.FindProof(bobP, aliceP, want, now); err == nil {
		t.Fatal("proof still found after the subscription invalidated it")
	}

	// A reset bumps the epoch (the coarse fallback) and is counted.
	epoch := cache.Epoch()
	dir.replies <- invalidationsReply(5, true)
	waitUntil(t, "a reset to bump the cache epoch", func() bool { return cache.Epoch() != epoch })
	waitUntil(t, "EventResets to count the reset", func() bool { return p.Stats().EventResets == 1 })
}

// TestFollowInvalidationsStopCancelsPoll: Stop cancels the long poll in
// flight, so the subscription's goroutine is gone at once rather than
// when the poll's hold runs out, and a second Stop is harmless.
func TestFollowInvalidationsStopCancelsPoll(t *testing.T) {
	dir, client := newScriptedDirectory(t)
	sub := prover.New().SubscribeWait(client, core.NewProofCache(8), time.Minute)
	waitUntil(t, "the poll to be held", func() bool { return dir.polls.Load() == 1 })
	start := time.Now()
	sub.Stop()
	select {
	case <-sub.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("subscription still polling 5 s after Stop")
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("subscription took %s to stop with a poll in flight", d)
	}
	sub.Stop()
}
