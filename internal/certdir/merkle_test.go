package certdir

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
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

// TestMerkleIncrementalMatchesRecomputed drives every mutation path —
// publish, remove, re-publish, revocation eviction, expiry sweep — and
// asserts the incrementally maintained leaf summaries equal a from-
// scratch recomputation, and that the root agrees with Len.
func TestMerkleIncrementalMatchesRecomputed(t *testing.T) {
	now := time.Now()
	st := NewStore(4)
	long := core.Until(now.Add(time.Hour))
	certs := walCorpus(t, "mk-cons", 200, long)
	for _, c := range certs {
		if _, err := st.Publish(c, now); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range certs[:40] {
		if !st.Remove(c.Hash()) {
			t.Fatal("remove failed")
		}
	}
	// Re-publish clears tombstones and re-adds the leaves.
	for _, c := range certs[:10] {
		if added, err := st.Publish(c, now); err != nil || !added {
			t.Fatalf("re-publish: added=%v err=%v", added, err)
		}
	}
	// Revocation eviction drops leaves too.
	victim := certs[100]
	rs := cert.NewRevocationStore()
	if _, errs := rs.Add(cert.NewRevocationList(
		sfkey.FromSeed([]byte("mk-cons-issuer-0")), long, victim.Hash())); errs[0] != nil {
		t.Fatal(errs[0])
	}
	st.EvictRevoked(rs.RevokedAt(now))
	// Expiry sweep drops leaves without tombstones.
	short := walCorpus(t, "mk-cons-short", 30, core.Between(now.Add(-time.Minute), now.Add(time.Minute)))
	for _, c := range short {
		if _, err := st.Publish(c, now); err != nil {
			t.Fatal(err)
		}
	}
	st.Sweep(now.Add(30 * time.Minute))

	ic, ix := st.merkleSnapshot()
	rc, rx := st.merkleRecomputed()
	if ic != rc {
		t.Fatal("incremental leaf counts diverge from recomputation")
	}
	if ix != rx {
		t.Fatal("incremental leaf XORs diverge from recomputation")
	}
	if root := st.MerkleRoot(); root.Count != st.Len() {
		t.Fatalf("root count %d, store holds %d", root.Count, st.Len())
	}
	// Every inner node must equal the fold of its children.
	rootSum := st.MerkleSummaries([]int{0})[0]
	kids := st.MerkleSummaries(merkleChildren(nil, 0))
	var folded MerkleSummary
	for _, k := range kids {
		folded.Count += k.Count
		for i := range folded.XOR {
			folded.XOR[i] ^= k.XOR[i]
		}
	}
	if folded.Count != rootSum.Count || folded.XOR != rootSum.XOR {
		t.Fatal("root summary does not equal the fold of its children")
	}
}

// TestMerklePullSingleDiff: a one-certificate gap is found by tree
// descent (descents advance), repaired, and a converged pair's next
// round stops at the root exchange without descending.
func TestMerklePullSingleDiff(t *testing.T) {
	now := time.Now()
	a, b := newNode(t), newNode(t)
	certs := walCorpus(t, "mk-pull", 50, core.Until(now.Add(time.Hour)))
	for i, c := range certs {
		if _, err := a.store.Publish(c, now); err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			if _, err := b.store.Publish(c, now); err != nil {
				t.Fatal(err)
			}
		}
	}
	rep := fastReplicator(b.store, a)
	pulled, err := rep.Converge()
	if err != nil || pulled != 1 {
		t.Fatalf("pulled %d (err %v), want 1", pulled, err)
	}
	if !b.store.HasHash(certs[0].Hash()) {
		t.Fatal("missing certificate not pulled")
	}
	st := rep.Stats()
	if st.Descents == 0 {
		t.Fatal("merkle pull did not descend")
	}
	if st.DigestBytes == 0 {
		t.Fatal("digest byte counter did not advance")
	}
	// Converged: the next round is one root exchange, no descent.
	if pulled, err := rep.Converge(); err != nil || pulled != 0 {
		t.Fatalf("second round pulled %d (err %v)", pulled, err)
	}
	if st2 := rep.Stats(); st2.Descents != st.Descents {
		t.Fatalf("converged round descended (%d -> %d)", st.Descents, st2.Descents)
	}
}

// TestMerkleIncompatiblePeerIsRoundError: the descent is the only
// anti-entropy protocol. A peer that does not serve it (404 on the
// root endpoint) or reports a different tree shape cannot be
// reconciled: the round fails for that peer with an error naming it,
// RoundErrors advances, and nothing is pulled — there is no other
// exchange to fall back to.
func TestMerkleIncompatiblePeerIsRoundError(t *testing.T) {
	now := time.Now()
	peerStore := NewStore(4)
	for _, c := range walCorpus(t, "mk-incompat", 20, core.Until(now.Add(time.Hour))) {
		if _, err := peerStore.Publish(c, now); err != nil {
			t.Fatal(err)
		}
	}
	peerSvc := NewService(peerStore)
	for name, root := range map[string]http.HandlerFunc{
		"pre-merkle": func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "certdir: no such endpoint", http.StatusNotFound)
		},
		"foreign-shape": func(w http.ResponseWriter, r *http.Request) {
			sum := peerStore.MerkleRoot()
			w.Write(sexp.List(sexp.String("mroot"),
				sexp.List(sexp.String("params"), sexp.String("1024"), sexp.String("4")),
				sexp.List(sexp.String("sum"), sexp.String(strconv.Itoa(sum.Count)), sexp.Atom(sum.XOR[:])),
			).Canonical())
		},
	} {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == PathGossipRoot {
				root(w, r)
				return
			}
			peerSvc.ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)

		st := NewStore(4)
		rep := NewReplicator(st, []*Client{NewClient(ts.URL)})
		pulled, err := rep.Converge()
		if err == nil || !strings.Contains(err.Error(), ts.URL) {
			t.Errorf("%s: Converge err = %v, want an error naming %s", name, err, ts.URL)
		}
		if rs := rep.Stats(); rs.RoundErrors != 1 || rs.Pulled != 0 || rs.Descents != 0 {
			t.Errorf("%s: stats = %+v, want 1 round error, nothing pulled, no descent", name, rs)
		}
		if pulled != 0 || st.Len() != 0 {
			t.Errorf("%s: pulled %d, store holds %d; want nothing", name, pulled, st.Len())
		}
	}
}

// budgetCorpus signs n certificates in parallel (the 100k corpus would
// take several seconds single-threaded).
func budgetCorpus(t *testing.T, seed string, n int, v core.Validity) []*cert.Cert {
	t.Helper()
	privs := make([]*sfkey.PrivateKey, 8)
	for i := range privs {
		privs[i] = sfkey.FromSeed([]byte(fmt.Sprintf("%s-iss-%d", seed, i)))
	}
	subj := principal.KeyOf(sfkey.FromSeed([]byte(seed + "-subj")).Public())
	out := make([]*cert.Cert, n)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	workers := runtime.GOMAXPROCS(0)
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				priv := privs[i%len(privs)]
				c, err := cert.Delegate(priv, subj, principal.KeyOf(priv.Public()),
					tag.Literal(fmt.Sprintf("%s-r%d", seed, i)), v)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				out[i] = c
			}
		}(lo, hi)
	}
	wg.Wait()
	if firstErr != nil {
		t.Fatal(firstErr)
	}
	return out
}

// budgetPublish indexes the corpus into every store in parallel,
// interleaved per certificate so later stores' verifications hit the
// shared proof cache seeded by the first.
func budgetPublish(t *testing.T, certs []*cert.Cert, now time.Time, stores ...*Store) {
	t.Helper()
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	workers := runtime.GOMAXPROCS(0)
	chunk := (len(certs) + workers - 1) / workers
	for lo := 0; lo < len(certs); lo += chunk {
		hi := lo + chunk
		if hi > len(certs) {
			hi = len(certs)
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				for _, s := range stores {
					if _, err := s.Publish(certs[i], now); err != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						mu.Unlock()
						return
					}
				}
			}
		}(lo, hi)
	}
	wg.Wait()
	if firstErr != nil {
		t.Fatal(firstErr)
	}
}

// merkleDiffBudget bounds the summary bytes (request + reply, root
// through leaf hashes) one single-certificate diff may cost. It is the
// planet-scale acceptance bound made absolute: 5% of what the retired
// flat count+XOR exchange (64 partition digests, then the full hash
// list of each differing partition) moved for the same diff at 100k
// stored certificates. Recorded at n=100k: 2294 B Merkle against
// 59918 B flat, 3.8%.
const merkleDiffBudget = 59918 * 5 / 100

// TestMerkleOneCertDiffByteBudget: at 100k stored certificates,
// reconciling a single-certificate diff stays within merkleDiffBudget
// and the descent stays logarithmic (a handful of node round trips).
// Under the race detector the corpus shrinks; the descent cost barely
// depends on n (only the final leaf's hash list does), so the bound
// is the same.
func TestMerkleOneCertDiffByteBudget(t *testing.T) {
	n := 100_000
	if raceEnabled {
		n = 3_000
	}
	now := time.Now()
	v := core.Until(now.Add(time.Hour))
	a := newNode(t)
	bStore := NewStore(4)
	budgetPublish(t, budgetCorpus(t, "mk-budget", n, v), now, a.store, bStore)

	// One cert ahead at A, one descent-driven pull at B.
	if _, err := a.store.Publish(walCorpus(t, "mk-budget-extra", 1, v)[0], now); err != nil {
		t.Fatal(err)
	}
	rep := fastReplicator(bStore, a)
	if pulled, err := rep.Converge(); err != nil || pulled != 1 {
		t.Fatalf("round pulled %d (err %v), want 1", pulled, err)
	}
	rs := rep.Stats()
	t.Logf("n=%d digest=%dB (budget %dB), descents=%d", n, rs.DigestBytes, merkleDiffBudget, rs.Descents)
	if rs.Descents == 0 || rs.Descents > 8 {
		t.Fatalf("descents = %d, want logarithmic (1..8 node round trips)", rs.Descents)
	}
	if rs.DigestBytes == 0 || rs.DigestBytes > merkleDiffBudget {
		t.Fatalf("digest traffic %dB, want 1..%dB", rs.DigestBytes, merkleDiffBudget)
	}
}
