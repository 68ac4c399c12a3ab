package certdir

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
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

// gatedPeer serves a directory that holds the first request it gets
// until release is closed (entered is closed when it arrives), so the
// mutations an origin makes meanwhile queue up behind that push. It
// records every request in arrival order.
type gatedPeer struct {
	url              string
	entered, release chan struct{}
	mu               sync.Mutex
	requests         []pushedRequest
}

// pushedRequest is one request a gatedPeer received: its path, the
// certificates a (certs ...) publish run carried (0 otherwise) and the
// body size.
type pushedRequest struct {
	path        string
	certs, size int
}

func newGatedPeer(t *testing.T, svc *Service) *gatedPeer {
	t.Helper()
	g := &gatedPeer{entered: make(chan struct{}), release: make(chan struct{})}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		r.Body = io.NopCloser(bytes.NewReader(body))
		req := pushedRequest{path: r.URL.Path, size: len(body)}
		if e, err := sexp.ParseOne(body); err == nil && e.Tag() == "certs" {
			req.certs = e.Len() - 1
		}
		g.mu.Lock()
		g.requests = append(g.requests, req)
		first := len(g.requests) == 1
		g.mu.Unlock()
		if first {
			close(g.entered)
			<-g.release
		}
		svc.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	g.url = ts.URL
	return g
}

func (g *gatedPeer) received() []pushedRequest {
	g.mu.Lock()
	defer g.mu.Unlock()
	return slices.Clone(g.requests)
}

// TestPushKeepsQueueOrderAcrossRuns queues mutations behind a push the
// peer holds open: publish X, remove X, re-publish X; publish Y, then
// the CRL by Y's signer that revokes Y. The peer must receive them in
// queue order, the re-publish of X and Y as one run between the
// removal and the CRL, and end with X live, Y evicted and the origin's
// Merkle root. Pushing a run ahead of the removal would leave X
// tombstoned at the peer; pushing it behind the CRL would leave Y live.
func TestPushKeepsQueueOrderAcrossRuns(t *testing.T) {
	now := time.Now()
	v := core.Between(now.Add(-time.Minute), now.Add(time.Hour))
	a, b := NewStore(4), NewStore(4)
	aRevs := cert.NewRevocationStore()
	bSvc := NewService(b)
	bSvc.Revocations = cert.NewRevocationStore()
	peer := newGatedPeer(t, bSvc)
	rep := NewReplicator(a, []*Client{NewClient(peer.url)})
	rep.backoff = 5 * time.Millisecond
	rep.Interval = time.Hour
	rep.Revocations = aRevs
	rep.Start()
	defer rep.Stop()

	issuer := sfkey.FromSeed([]byte("fifo-issuer"))
	mint := func(name string) *cert.Cert {
		return delegate(t, issuer, principal.KeyOf(sfkey.FromSeed([]byte("fifo-"+name)).Public()), tag.Literal(name), v)
	}
	publish := func(c *cert.Cert) {
		t.Helper()
		if added, err := a.Publish(c, now); err != nil || !added {
			t.Fatalf("publish: added=%v err=%v", added, err)
		}
	}
	z, x, y := mint("z"), mint("x"), mint("y")
	publish(z)
	<-peer.entered // the push worker is busy with z; what follows queues up
	publish(x)
	if !a.Remove(x.Hash()) {
		t.Fatal("remove failed")
	}
	publish(x)
	publish(y)
	if res := InstallCRLs(aRevs, a, rep, []*cert.RevocationList{cert.NewRevocationList(issuer, v, y.Hash())}, now); res.Installed != 1 || res.Evicted != 1 {
		t.Fatalf("local CRL install: %+v", res)
	}
	close(peer.release)

	waitUntil(t, "every queued mutation pushed", func() bool {
		st := rep.Stats()
		return st.Pushes+st.PushFailures == 6
	})
	var got []string
	for _, req := range peer.received() {
		got = append(got, fmt.Sprintf("%s %d", req.path, req.certs))
	}
	want := []string{PathPublish + " 0", PathPublish + " 0", PathRemove + " 0", PathPublish + " 2", PathAdminCRL + " 0"}
	if !slices.Equal(got, want) {
		t.Fatalf("peer saw requests %q, want %q (path, certificates in a run)", got, want)
	}
	if st := rep.Stats(); st.PushFailures != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if !b.HasHash(x.Hash()) || b.Tombstoned(x.Hash()) {
		t.Fatal("re-published X is not live at the peer")
	}
	if b.HasHash(y.Hash()) {
		t.Fatal("revoked Y is live at the peer")
	}
	if ra, rb := a.MerkleRoot(), b.MerkleRoot(); ra != rb {
		t.Fatalf("Merkle roots differ: origin %d/%x, peer %d/%x", ra.Count, ra.XOR, rb.Count, rb.XOR)
	}
}

// TestPushRunBounds queues 300 small certificates and then 100 with a
// 16 KiB tag behind a push the peer holds open. Runs must stop at
// verifyBatch certificates and at maxBody bytes of body, and every
// certificate must arrive.
func TestPushRunBounds(t *testing.T) {
	now := time.Now()
	v := core.Between(now.Add(-time.Minute), now.Add(time.Hour))
	a, b := NewStore(4), NewStore(4)
	peer := newGatedPeer(t, NewService(b))
	rep := NewReplicator(a, []*Client{NewClient(peer.url)})
	rep.Interval = time.Hour
	rep.Start()
	defer rep.Stop()

	issuer := sfkey.FromSeed([]byte("bounds-issuer"))
	subject := principal.KeyOf(sfkey.FromSeed([]byte("bounds-subject")).Public())
	big := strings.Repeat("x", 16<<10)
	publish := func(name string) {
		t.Helper()
		if _, err := a.Publish(delegate(t, issuer, subject, tag.Literal(name), v), now); err != nil {
			t.Fatal(err)
		}
	}
	publish("held")
	<-peer.entered
	const small, large = 300, 100
	for i := 0; i < small; i++ {
		publish(fmt.Sprintf("small-%d", i))
	}
	for i := 0; i < large; i++ {
		publish(fmt.Sprintf("%s-%d", big, i))
	}
	close(peer.release)

	waitUntil(t, "every certificate pushed", func() bool {
		st := rep.Stats()
		return st.Pushes+st.PushFailures == 1+small+large
	})
	if st := rep.Stats(); st.PushFailures != 0 || b.Len() != 1+small+large {
		t.Fatalf("peer holds %d of %d, stats %+v", b.Len(), 1+small+large, rep.Stats())
	}
	reqs := peer.received()
	if len(reqs) < 2 || reqs[1].certs != verifyBatch {
		t.Fatalf("first run after the held push carried %+v, want %d certificates", reqs[1:2], verifyBatch)
	}
	sizeCut := false
	for i, req := range reqs {
		if req.certs > verifyBatch || req.size > maxBody {
			t.Fatalf("request %d: %d certificates in %d bytes", i, req.certs, req.size)
		}
		if i > 1 && i < len(reqs)-1 && req.certs < verifyBatch {
			sizeCut = true // a run the queue did not run dry on
		}
	}
	if !sizeCut {
		t.Fatalf("no run was cut by the body bound: %+v", reqs)
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
	if added, rejected, _ := b.store.indexVerified([]*cert.Cert{c}, now, true, false); added != 0 || rejected != 0 {
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
