package certdir

import (
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/principal"
	"repro/internal/sfkey"
	"repro/internal/tag"
)

// node is one in-process directory: store + HTTP service + a client
// other nodes dial.
type node struct {
	store  *Store
	client *Client
}

func newNode(t *testing.T) *node {
	t.Helper()
	st := NewStore(4)
	ts := httptest.NewServer(NewService(st))
	t.Cleanup(ts.Close)
	return &node{store: st, client: NewClient(ts.URL)}
}

// fastReplicator wires a replicator with test-friendly timings.
func fastReplicator(st *Store, peers ...*node) *Replicator {
	clients := make([]*Client, len(peers))
	for i, p := range peers {
		clients[i] = p.client
	}
	r := NewReplicator(st, clients)
	r.backoff = 5 * time.Millisecond
	r.Interval = time.Hour // tests drive Converge explicitly; pushes are immediate
	return r
}

// certDelegate is the goroutine-safe variant of store_test's delegate
// helper: it returns the error instead of calling t.Fatal.
func certDelegate(priv *sfkey.PrivateKey, subject principal.Principal, name string, now time.Time) (*cert.Cert, error) {
	return cert.Delegate(priv, subject, principal.KeyOf(priv.Public()),
		tag.Literal(name), core.Until(now.Add(time.Hour)))
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestPushOnPublish(t *testing.T) {
	now := time.Now()
	a, b := newNode(t), newNode(t)
	rep := fastReplicator(a.store, b)
	rep.Start()
	defer rep.Stop()

	priv := sfkey.FromSeed([]byte("push-issuer"))
	c := delegate(t, priv, principal.KeyOf(sfkey.FromSeed([]byte("push-subj")).Public()),
		tag.Prefix("files"), core.Until(now.Add(time.Hour)))
	if _, err := a.store.Publish(c, now); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "push A->B", func() bool { return b.store.HasHash(c.Hash()) })

	// Removal fans out too, and tombstones the peer.
	if !a.store.Remove(c.Hash()) {
		t.Fatal("remove failed")
	}
	waitUntil(t, "remove push A->B", func() bool { return !b.store.HasHash(c.Hash()) })
	if !b.store.Tombstoned(c.Hash()) {
		t.Fatal("peer removal left no tombstone")
	}
	if st := rep.Stats(); st.Pushes < 2 || st.PushFailures != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestAntiEntropyPull(t *testing.T) {
	now := time.Now()
	a, b := newNode(t), newNode(t)

	// A accumulates 20 certs with nobody pushing (e.g. B was down).
	var certs []string
	for i := 0; i < 20; i++ {
		priv := sfkey.FromSeed([]byte(fmt.Sprintf("ae-issuer-%d", i%3)))
		c := delegate(t, priv, principal.KeyOf(sfkey.FromSeed([]byte(fmt.Sprintf("ae-subj-%d", i))).Public()),
			tag.Literal(fmt.Sprintf("ae-r%d", i)), core.Until(now.Add(time.Hour)))
		if _, err := a.store.Publish(c, now); err != nil {
			t.Fatal(err)
		}
		certs = append(certs, string(c.Hash()))
	}

	rep := fastReplicator(b.store, a)
	pulled, err := rep.Converge()
	if err != nil {
		t.Fatal(err)
	}
	if pulled != 20 || b.store.Len() != 20 {
		t.Fatalf("pulled %d, stored %d, want 20/20", pulled, b.store.Len())
	}
	for _, h := range certs {
		if !b.store.HasHash([]byte(h)) {
			t.Fatal("pulled set incomplete")
		}
	}
	// Converged: the next round moves nothing.
	if pulled, err := rep.Converge(); err != nil || pulled != 0 {
		t.Fatalf("second round pulled %d (err %v), want 0", pulled, err)
	}
}

func TestAntiEntropyRespectsTombstones(t *testing.T) {
	now := time.Now()
	a, b := newNode(t), newNode(t)
	priv := sfkey.FromSeed([]byte("tomb-issuer"))
	c := delegate(t, priv, principal.KeyOf(sfkey.FromSeed([]byte("tomb-subj")).Public()),
		tag.All(), core.Until(now.Add(time.Hour)))
	for _, n := range []*node{a, b} {
		if _, err := n.store.Publish(c, now); err != nil {
			t.Fatal(err)
		}
	}

	// B retracts; A (a lagging peer) still serves the cert. B's next
	// pull must not resurrect it — and must repair A by re-pushing the
	// removal A's push never saw.
	if !b.store.Remove(c.Hash()) {
		t.Fatal("remove failed")
	}
	rep := fastReplicator(b.store, a)
	if pulled, err := rep.Converge(); err != nil || pulled != 0 {
		t.Fatalf("pulled %d (err %v), want 0", pulled, err)
	}
	if b.store.HasHash(c.Hash()) {
		t.Fatal("anti-entropy resurrected a removed certificate")
	}
	if a.store.HasHash(c.Hash()) {
		t.Fatal("anti-entropy did not propagate the removal to the lagging peer")
	}
	if !a.store.Tombstoned(c.Hash()) {
		t.Fatal("propagated removal left no tombstone at the peer")
	}

	// A gossip pull must yield to the tombstone even when racing past
	// the hash-list check (the atomic re-check inside publish).
	if added, rejected := b.store.indexVerified([]*cert.Cert{c}, now, true, false); added != 0 || rejected != 0 {
		t.Fatalf("pulled index over a tombstone: added=%d rejected=%d, want 0/0", added, rejected)
	}

	// An explicit re-publish at B outranks the old retraction.
	if added, err := b.store.Publish(c, now); err != nil || !added {
		t.Fatalf("re-publish: %v %v", added, err)
	}
}

// TestThreeNodeConvergence floods concurrent publishes through a full
// mesh; run under -race (CI does) to exercise the hook, queue, and
// gossip paths together.
func TestThreeNodeConvergence(t *testing.T) {
	now := time.Now()
	nodes := []*node{newNode(t), newNode(t), newNode(t)}
	reps := make([]*Replicator, len(nodes))
	for i, n := range nodes {
		var peers []*node
		for j, p := range nodes {
			if j != i {
				peers = append(peers, p)
			}
		}
		reps[i] = fastReplicator(n.store, peers...)
		reps[i].Start()
		defer reps[i].Stop()
	}

	const perNode = 15
	done := make(chan error, len(nodes))
	for i, n := range nodes {
		go func(i int, n *node) {
			for j := 0; j < perNode; j++ {
				priv := sfkey.FromSeed([]byte(fmt.Sprintf("mesh-%d-issuer-%d", i, j%2)))
				subj := principal.KeyOf(sfkey.FromSeed([]byte(fmt.Sprintf("mesh-%d-subj-%d", i, j))).Public())
				c, err := certDelegate(priv, subj, fmt.Sprintf("mesh-%d-%d", i, j), now)
				if err == nil {
					_, err = n.store.Publish(c, now)
				}
				if err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(i, n)
	}
	for range nodes {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}

	total := perNode * len(nodes)
	waitUntil(t, "mesh convergence", func() bool {
		for _, rep := range reps {
			rep.Converge() // repair anything the push flood shed
		}
		for _, n := range nodes {
			if n.store.Len() != total {
				return false
			}
		}
		return true
	})
}
