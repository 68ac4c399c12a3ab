package certdir

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
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

// fastReplicator wires a replicator that follows its peers and runs no
// timed anti-entropy round: tests drive Converge explicitly.
func fastReplicator(st *Store, peers ...*node) *Replicator {
	clients := make([]*Client, len(peers))
	for i, p := range peers {
		clients[i] = p.client
	}
	r := NewReplicator(st, clients)
	r.Interval = time.Hour
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

// TestFollowOnPublish: with anti-entropy effectively off (a 1 h
// interval), a publish at A is indexed at B within a second, because B
// follows A's record stream; a removal at A follows the same way and
// tombstones B.
func TestFollowOnPublish(t *testing.T) {
	now := time.Now()
	a, b := newNode(t), newNode(t)
	rep := fastReplicator(b.store, a)
	rep.Start()
	defer rep.Stop()

	priv := sfkey.FromSeed([]byte("push-issuer"))
	c := delegate(t, priv, principal.KeyOf(sfkey.FromSeed([]byte("push-subj")).Public()),
		tag.Prefix("files"), core.Until(now.Add(time.Hour)))
	time.Sleep(50 * time.Millisecond) // B's poll is held at A
	start := time.Now()
	if _, err := a.store.Publish(c, now); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "follow A->B", func() bool { return b.store.HasHash(c.Hash()) })
	if d := time.Since(start); d > time.Second {
		t.Fatalf("publish took %s to reach the follower", d)
	}

	// Removal follows too, and tombstones the peer.
	if !a.store.Remove(c.Hash()) {
		t.Fatal("remove failed")
	}
	waitUntil(t, "remove A->B", func() bool { return !b.store.HasHash(c.Hash()) })
	if !b.store.Tombstoned(c.Hash()) {
		t.Fatal("peer removal left no tombstone")
	}
	if st := rep.Stats(); st.Pulled != 1 || st.PushFailures != 0 || st.Rounds != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// gatedPeer serves a directory that holds the first request it gets
// until release is closed (entered is closed when it arrives), so the
// mutations the directory makes meanwhile are all behind the cursor of
// that request when the directory reads it.
type gatedPeer struct {
	url              string
	entered, release chan struct{}
	first            sync.Once
}

func newGatedPeer(t *testing.T, svc *Service) *gatedPeer {
	t.Helper()
	g := &gatedPeer{entered: make(chan struct{}), release: make(chan struct{})}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		g.first.Do(func() {
			close(g.entered)
			<-g.release
		})
		svc.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	g.url = ts.URL
	return g
}

// logOf lists a store's retained events as "kind hash" strings, oldest
// first.
func logOf(st *Store) []string {
	st.events.mu.Lock()
	defer st.events.mu.Unlock()
	var out []string
	for _, ev := range st.events.ring {
		out = append(out, fmt.Sprintf("%s %x", ev.Kind, ev.Hash))
	}
	return out
}

// isSubsequence reports whether sub occurs in seq in order.
func isSubsequence(sub, seq []string) bool {
	for _, x := range seq {
		if len(sub) > 0 && sub[0] == x {
			sub = sub[1:]
		}
	}
	return len(sub) == 0
}

// TestFollowAppliesInLogOrder: B follows A, whose directory holds B's
// first poll while A publishes X, removes X and re-publishes X, then
// publishes Y and installs the CRL by Y's signer that revokes Y. B
// must apply what A's stream delivers in A's log order and end with X
// live, Y evicted and A's Merkle root; B's own log is then A's log in
// the same order, less what an answer skips. Applying the re-publish
// ahead of the removal would leave X tombstoned at B; applying a
// publish behind the CRL that voids it would leave it live.
func TestFollowAppliesInLogOrder(t *testing.T) {
	now := time.Now()
	v := core.Between(now.Add(-time.Minute), now.Add(time.Hour))
	a, b := NewStore(4), NewStore(4)
	aSvc := NewService(a)
	aSvc.Revocations = cert.NewRevocationStore()
	peer := newGatedPeer(t, aSvc)
	rep := NewReplicator(b, []*Client{NewClient(peer.url)})
	rep.Interval = time.Hour
	rep.Revocations = cert.NewRevocationStore()
	rep.Start()
	defer rep.Stop()

	issuer := sfkey.FromSeed([]byte("fifo-issuer"))
	mint := func(name string) *cert.Cert {
		return delegate(t, issuer, principal.KeyOf(sfkey.FromSeed([]byte("fifo-"+name)).Public()), tag.Literal(name), v)
	}
	publish := func(st *Store, c *cert.Cert) {
		t.Helper()
		if added, err := st.Publish(c, now); err != nil || !added {
			t.Fatalf("publish: added=%v err=%v", added, err)
		}
	}
	z, x, y := mint("z"), mint("x"), mint("y")
	<-peer.entered // B's first poll waits; everything below precedes A's read of it
	publish(a, z)
	publish(a, x)
	if !a.Remove(x.Hash()) {
		t.Fatal("remove failed")
	}
	publish(a, x)
	publish(a, y)
	rl := cert.NewRevocationList(issuer, v, y.Hash())
	if res := InstallCRLs(aSvc.Revocations, a, []*cert.RevocationList{rl}, now); res.Installed != 1 || res.Evicted != 1 {
		t.Fatalf("local CRL install: %+v", res)
	}
	close(peer.release)

	waitUntil(t, "B applies A's stream", func() bool { return b.HasHash(z.Hash()) && len(b.CRLs()) == 1 })
	if !b.HasHash(x.Hash()) || b.Tombstoned(x.Hash()) {
		t.Fatal("re-published X is not live at the peer")
	}
	if b.HasHash(y.Hash()) {
		t.Fatal("revoked Y is live at the peer")
	}
	if ra, rb := a.MerkleRoot(), b.MerkleRoot(); ra != rb {
		t.Fatalf("Merkle roots differ: origin %d/%x, peer %d/%x", ra.Count, ra.XOR, rb.Count, rb.XOR)
	}
	if la, lb := logOf(a), logOf(b); !isSubsequence(lb, la) {
		t.Fatalf("B's log is not A's in order:\nA %q\nB %q", la, lb)
	}
	if st := rep.Stats(); st.PushFailures != 0 || st.CRLsPulled != 1 {
		t.Fatalf("stats = %+v", st)
	}

	// One answer can hold a publish and the list that voids it: a read
	// that lands between the list's keep and its eviction. A follower
	// applying the answer in order installs the list after indexing the
	// certificate, and so evicts it.
	cursor := a.follow(context.Background(), eventsRequest{kinds: []string{EventPublish}}).next
	w := mint("w")
	publish(a, w)
	rlW := cert.NewRevocationList(issuer, v, w.Hash())
	a.keepCRL(rlW, false, "")
	ans := a.follow(context.Background(), eventsRequest{after: cursor, kinds: []string{EventPublish, EventRemove, EventCRL}})
	if len(ans.rows) != 2 || ans.rows[0].Kind != EventPublish || ans.rows[1].Kind != EventCRL {
		t.Fatalf("answer holds %d rows, want the publish and then the list", len(ans.rows))
	}
	c := NewStore(4)
	repC := NewReplicator(c, nil)
	repC.Revocations = cert.NewRevocationStore()
	repC.apply(nil, false, ans)
	if c.HasHash(w.Hash()) || !c.Tombstoned(w.Hash()) {
		t.Fatal("a publish applied after the list that voids it")
	}
}

// TestFollowReplyBounds: an answer of the stream carries at most
// verifyBatch certificates and maxBody bytes of them, and a cut answer
// is marked more and its cursor stops at the last event it included,
// so the rest arrives on the next poll. A directory holds 1 + 300 small certificates and 100 with
// a 16 KiB tag: the first answer stops at verifyBatch, a later one at
// the byte bound, and a follower ends holding all of them.
func TestFollowReplyBounds(t *testing.T) {
	now := time.Now()
	v := core.Between(now.Add(-time.Minute), now.Add(time.Hour))
	a := newNode(t)
	issuer := sfkey.FromSeed([]byte("bounds-issuer"))
	subject := principal.KeyOf(sfkey.FromSeed([]byte("bounds-subject")).Public())
	big := strings.Repeat("x", 16<<10)
	publish := func(name string) {
		t.Helper()
		if _, err := a.store.Publish(delegate(t, issuer, subject, tag.Literal(name), v), now); err != nil {
			t.Fatal(err)
		}
	}
	publish("first")
	const small, large = 300, 100
	for i := 0; i < small; i++ {
		publish(fmt.Sprintf("small-%d", i))
	}
	for i := 0; i < large; i++ {
		publish(fmt.Sprintf("%s-%d", big, i))
	}

	var (
		cursor  uint64
		answers []int
		seen    = map[string]bool{}
		sizeCut bool
	)
	for {
		ans, err := a.client.follow(context.Background(), eventsRequest{after: cursor, kinds: []string{EventPublish}})
		if err != nil {
			t.Fatal(err)
		}
		if len(ans.rows) == 0 {
			break
		}
		size := 0
		for _, row := range ans.rows {
			size += row.cert.Sexp().FormatLen()
			seen[string(row.cert.Hash())] = true
		}
		if len(ans.rows) > verifyBatch || size > maxBody {
			t.Fatalf("answer %d: %d certificates in %d bytes", len(answers), len(ans.rows), size)
		}
		if cut := len(seen) < 1+small+large; ans.more != cut {
			t.Fatalf("answer %d: marked more=%v, want %v", len(answers), ans.more, cut)
		}
		if len(answers) > 0 && len(ans.rows) < verifyBatch && len(seen) < 1+small+large {
			sizeCut = true // an answer the stream did not run dry on
		}
		answers = append(answers, len(ans.rows))
		cursor = ans.next
	}
	if len(seen) != 1+small+large || answers[0] != verifyBatch || !sizeCut {
		t.Fatalf("answers carried %v (%d distinct), want %d in all, the first %d, one cut by size",
			answers, len(seen), 1+small+large, verifyBatch)
	}

	b := newNode(t)
	rep := fastReplicator(b.store, a)
	rep.Start()
	defer rep.Stop()
	waitUntil(t, "every certificate followed", func() bool { return b.store.Len() == 1+small+large })
	if st := rep.Stats(); st.Pulled != 1+small+large || st.PullRejected != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestFollowReplayKeepsLocalState: a follow's first answer replays the
// peer's retained tail, history this directory may have moved past. A
// publish in it yields to a local tombstone, and a removal the peer
// has since undone by re-publishing is skipped, so the replay neither
// resurrects a retraction made here nor drops a certificate the peer
// holds again. The tail holds more certificates than one answer
// carries, so the rows that matter arrive after the peer has cut it:
// the replay lasts until the peer answers without cutting.
func TestFollowReplayKeepsLocalState(t *testing.T) {
	now := time.Now()
	a, b := newNode(t), newNode(t)
	issuer := sfkey.FromSeed([]byte("replay-issuer"))
	mint := func(name string) *cert.Cert {
		return delegate(t, issuer, principal.KeyOf(sfkey.FromSeed([]byte("replay-"+name)).Public()),
			tag.Literal(name), core.Until(now.Add(time.Hour)))
	}
	publish := func(st *Store, c *cert.Cert) {
		t.Helper()
		if added, err := st.Publish(c, now); err != nil || !added {
			t.Fatalf("publish: added=%v err=%v", added, err)
		}
	}
	fillers := make([]*cert.Cert, verifyBatch+8)
	for i := range fillers {
		fillers[i] = mint(fmt.Sprintf("filler-%d", i))
		publish(a.store, fillers[i])
	}
	x, y, z := mint("x"), mint("y"), mint("z")
	for _, st := range []*Store{a.store, b.store} {
		publish(st, x)
		publish(st, y)
	}
	if !b.store.Remove(x.Hash()) { // B retracted X; A never heard of it
		t.Fatal("remove failed")
	}
	if !a.store.Remove(y.Hash()) { // A retracted Y and published it again
		t.Fatal("remove failed")
	}
	publish(a.store, y)

	rep := fastReplicator(b.store, a)
	rep.Start()
	defer rep.Stop()
	publish(a.store, z)
	waitUntil(t, "B follows A", func() bool { return b.store.HasHash(z.Hash()) })
	if b.store.HasHash(x.Hash()) || !b.store.Tombstoned(x.Hash()) {
		t.Fatal("the replayed tail resurrected a certificate removed here")
	}
	if !b.store.HasHash(y.Hash()) {
		t.Fatal("the replayed tail removed a certificate the peer holds again")
	}
	for _, c := range fillers {
		if !b.store.HasHash(c.Hash()) {
			t.Fatal("the replayed tail lost a certificate")
		}
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
	if added, rejected, _ := b.store.indexVerified([]*cert.Cert{c}, now, true, false, ""); added != 0 || rejected != 0 {
		t.Fatalf("pulled index over a tombstone: added=%d rejected=%d, want 0/0", added, rejected)
	}

	// An explicit re-publish at B outranks the old retraction.
	if added, err := b.store.Publish(c, now); err != nil || !added {
		t.Fatalf("re-publish: %v %v", added, err)
	}
}

// TestHeardRemovalNotRelayed: a removal this directory applied from a
// peer's stream leaves a tombstone, so anti-entropy never pulls the
// certificate back, but the removal repair does not push it on to a
// third directory under this one's credential: that is left to the
// directory where the removal was made. The mark survives a restart.
func TestHeardRemovalNotRelayed(t *testing.T) {
	now := time.Now()
	a, c := newNode(t), newNode(t)
	dir := t.TempDir()
	b, _, err := OpenDurable(dir, 4, SyncNever, now)
	if err != nil {
		t.Fatal(err)
	}
	x := delegate(t, sfkey.FromSeed([]byte("heard-issuer")), principal.KeyOf(sfkey.FromSeed([]byte("heard-subj")).Public()),
		tag.All(), core.Until(now.Add(time.Hour)))
	for _, st := range []*Store{a.store, b, c.store} {
		if _, err := st.Publish(x, now); err != nil {
			t.Fatal(err)
		}
	}
	cursor := a.store.follow(context.Background(), eventsRequest{kinds: []string{EventRemove}}).next
	if !a.store.Remove(x.Hash()) {
		t.Fatal("remove failed")
	}
	ans, err := a.client.follow(context.Background(), eventsRequest{after: cursor, kinds: []string{EventPublish, EventRemove, EventCRL}})
	if err != nil {
		t.Fatal(err)
	}
	NewReplicator(b, []*Client{a.client}).apply(a.client, false, ans)
	if b.HasHash(x.Hash()) || !b.Tombstoned(x.Hash()) {
		t.Fatal("the peer's removal did not apply")
	}
	if err := b.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	b, _, err = OpenDurable(dir, 4, SyncNever, now)
	if err != nil {
		t.Fatal(err)
	}
	defer b.CloseWAL()
	rep := NewReplicator(b, []*Client{c.client})
	if _, err := rep.Converge(); err != nil {
		t.Fatal(err)
	}
	if b.HasHash(x.Hash()) {
		t.Fatal("anti-entropy pulled back a removed certificate")
	}
	if st := rep.Stats(); !c.store.HasHash(x.Hash()) || st.Pushes != 0 {
		t.Fatalf("a removal heard from a peer was relayed (%d pushes)", st.Pushes)
	}
}

// TestThreeNodeConvergence floods concurrent publishes through three
// directories, run under -race (CI does) to exercise the follow and
// gossip paths together: as a full mesh whose anti-entropy rounds run
// while it converges, and as a directed ring of follows (0 follows 1,
// 1 follows 2, 2 follows 0) with no Merkle round at all, where a
// publish reaches the third directory only through the second's log.
func TestThreeNodeConvergence(t *testing.T) {
	for _, tc := range []struct {
		name   string
		peers  func(i int) []int
		merkle bool
	}{
		{"mesh", func(i int) []int { return []int{(i + 1) % 3, (i + 2) % 3} }, true},
		{"ring", func(i int) []int { return []int{(i + 1) % 3} }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			now := time.Now()
			nodes := []*node{newNode(t), newNode(t), newNode(t)}
			reps := make([]*Replicator, len(nodes))
			for i, n := range nodes {
				var peers []*node
				for _, j := range tc.peers(i) {
					peers = append(peers, nodes[j])
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
			waitUntil(t, tc.name+" convergence", func() bool {
				if tc.merkle {
					for _, rep := range reps {
						rep.Converge()
					}
				}
				for _, n := range nodes {
					if n.store.Len() != total {
						return false
					}
				}
				return true
			})
			// In the ring each publish comes back to its origin, which
			// drops it as held before any verification: no duplicate
			// reaches the store.
			for i, rep := range reps {
				st, dups := rep.Stats(), nodes[i].store.Stats().Duplicates
				if !tc.merkle && (st.Rounds != 0 || st.QueueDrops != 0 || dups != 0) {
					t.Fatalf("node %d ran %d rounds, %d resets and indexed %d duplicates in a ring of follows", i, st.Rounds, st.QueueDrops, dups)
				}
			}
		})
	}
}
