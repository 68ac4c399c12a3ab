package certdir

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/principal"
	"repro/internal/sfkey"
	"repro/internal/tag"
)

// delegate signs subject =t=> key(priv) valid within v.
func delegate(t testing.TB, priv *sfkey.PrivateKey, subject principal.Principal, tg tag.Tag, v core.Validity) *cert.Cert {
	t.Helper()
	c, err := cert.Delegate(priv, subject, principal.KeyOf(priv.Public()), tg, v)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestStorePublishAndQuery(t *testing.T) {
	now := time.Now()
	v := core.Between(now.Add(-time.Minute), now.Add(time.Hour))
	alice := sfkey.FromSeed([]byte("store-alice"))
	bob := sfkey.FromSeed([]byte("store-bob"))
	bobP := principal.KeyOf(bob.Public())
	aliceP := principal.KeyOf(alice.Public())

	st := NewStore(4)
	c := delegate(t, alice, bobP, tag.Prefix("files"), v)
	added, err := st.Publish(c, now)
	if err != nil || !added {
		t.Fatalf("publish: added=%v err=%v", added, err)
	}
	// Idempotent duplicate.
	added, err = st.Publish(c, now)
	if err != nil || added {
		t.Fatalf("duplicate publish: added=%v err=%v", added, err)
	}
	if st.Len() != 1 {
		t.Fatalf("Len = %d, want 1", st.Len())
	}

	got := st.ByIssuer(aliceP, now)
	if len(got) != 1 || !got[0].Equal(c) {
		t.Fatalf("ByIssuer = %v", got)
	}
	got = st.BySubject(bobP, now)
	if len(got) != 1 || !got[0].Equal(c) {
		t.Fatalf("BySubject = %v", got)
	}
	if got := st.ByIssuer(bobP, now); len(got) != 0 {
		t.Fatalf("ByIssuer(bob) = %v, want empty", got)
	}

	// Tampered signature is refused.
	bad := *c
	bad.Signature = append([]byte(nil), c.Signature...)
	bad.Signature[0] ^= 1
	if _, err := st.Publish(&bad, now); err == nil {
		t.Fatal("tampered certificate accepted")
	}
	// Expired-on-arrival is refused.
	old := delegate(t, alice, bobP, tag.All(), core.Between(now.Add(-2*time.Hour), now.Add(-time.Hour)))
	if _, err := st.Publish(old, now); err == nil {
		t.Fatal("expired certificate accepted")
	}
	if s := st.Stats(); s.Published != 1 || s.Duplicates != 1 || s.Rejected != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestStoreQueryFiltersExpired(t *testing.T) {
	now := time.Now()
	alice := sfkey.FromSeed([]byte("filter-alice"))
	bobP := principal.KeyOf(sfkey.FromSeed([]byte("filter-bob")).Public())
	aliceP := principal.KeyOf(alice.Public())

	st := NewStore(0)
	c := delegate(t, alice, bobP, tag.All(), core.Between(now.Add(-time.Minute), now.Add(time.Minute)))
	if _, err := st.Publish(c, now); err != nil {
		t.Fatal(err)
	}
	if got := st.ByIssuer(aliceP, now); len(got) != 1 {
		t.Fatalf("live cert missing: %v", got)
	}
	later := now.Add(time.Hour)
	if got := st.ByIssuer(aliceP, later); len(got) != 0 {
		t.Fatalf("expired cert served: %v", got)
	}
	if got := st.BySubject(bobP, later); len(got) != 0 {
		t.Fatalf("expired cert served by subject: %v", got)
	}
}

func TestStoreSweep(t *testing.T) {
	now := time.Now()
	alice := sfkey.FromSeed([]byte("sweep-alice"))
	aliceP := principal.KeyOf(alice.Public())
	st := NewStore(8)

	for i := 0; i < 10; i++ {
		subj := principal.KeyOf(sfkey.FromSeed([]byte(fmt.Sprintf("sweep-subj-%d", i))).Public())
		v := core.Between(now.Add(-time.Minute), now.Add(time.Minute))
		if i%2 == 0 {
			v = core.Between(now.Add(-time.Minute), now.Add(time.Hour))
		}
		if _, err := st.Publish(delegate(t, alice, subj, tag.All(), v), now); err != nil {
			t.Fatal(err)
		}
	}
	if n := st.Sweep(now); n != 0 {
		t.Fatalf("premature sweep dropped %d", n)
	}
	if n := st.Sweep(now.Add(30 * time.Minute)); n != 5 {
		t.Fatalf("sweep dropped %d, want 5", n)
	}
	if st.Len() != 5 {
		t.Fatalf("Len = %d after sweep, want 5", st.Len())
	}
	if got := st.ByIssuer(aliceP, now.Add(30*time.Minute)); len(got) != 5 {
		t.Fatalf("ByIssuer after sweep = %d certs", len(got))
	}
}

func TestStoreRemove(t *testing.T) {
	now := time.Now()
	alice := sfkey.FromSeed([]byte("remove-alice"))
	bobP := principal.KeyOf(sfkey.FromSeed([]byte("remove-bob")).Public())
	st := NewStore(2)
	c := delegate(t, alice, bobP, tag.All(), core.Until(now.Add(time.Hour)))
	if _, err := st.Publish(c, now); err != nil {
		t.Fatal(err)
	}
	if !st.Remove(c.Hash()) {
		t.Fatal("Remove missed a stored cert")
	}
	if st.Remove(c.Hash()) {
		t.Fatal("Remove found an already-removed cert")
	}
	if st.Len() != 0 || len(st.BySubject(bobP, now)) != 0 {
		t.Fatal("removed cert still indexed")
	}
}

func TestStoreEvictRevoked(t *testing.T) {
	now := time.Now()
	alice := sfkey.FromSeed([]byte("evict-alice"))
	bobP := principal.KeyOf(sfkey.FromSeed([]byte("evict-bob")).Public())
	carolP := principal.KeyOf(sfkey.FromSeed([]byte("evict-carol")).Public())
	st := NewStore(4)

	good := delegate(t, alice, bobP, tag.All(), core.Until(now.Add(time.Hour)))
	revoked := delegate(t, alice, carolP, tag.All(), core.Until(now.Add(time.Hour)))
	for _, c := range []*cert.Cert{good, revoked} {
		if _, err := st.Publish(c, now); err != nil {
			t.Fatal(err)
		}
	}

	rs := cert.NewRevocationStore()
	crl := cert.NewRevocationList(alice, core.Until(now.Add(time.Hour)), revoked.Hash())
	if _, errs := rs.Add(crl); errs[0] != nil {
		t.Fatal(errs[0])
	}
	if n := st.EvictRevoked(rs.RevokedAt(now)); n != 1 {
		t.Fatalf("evicted %d, want 1", n)
	}
	if got := st.BySubject(carolP, now); len(got) != 0 {
		t.Fatal("revoked cert still served")
	}
	if got := st.BySubject(bobP, now); len(got) != 1 {
		t.Fatal("unrevoked cert evicted")
	}
}

// TestStoreConcurrency hammers every mutation path at once; run with
// -race (CI does) to check the sharded locking.
func TestStoreConcurrency(t *testing.T) {
	now := time.Now()
	const issuers, perIssuer = 8, 25
	st := NewStore(4)

	certs := make([][]*cert.Cert, issuers)
	prins := make([]principal.Principal, issuers)
	for i := range certs {
		priv := sfkey.FromSeed([]byte(fmt.Sprintf("conc-issuer-%d", i)))
		prins[i] = principal.KeyOf(priv.Public())
		for j := 0; j < perIssuer; j++ {
			subj := principal.KeyOf(sfkey.FromSeed([]byte(fmt.Sprintf("conc-subj-%d-%d", i, j))).Public())
			v := core.Until(now.Add(time.Hour))
			if j%5 == 0 {
				v = core.Between(now.Add(-time.Minute), now.Add(time.Minute))
			}
			certs[i] = append(certs[i], delegate(t, priv, subj, tag.All(), v))
		}
	}

	var wg sync.WaitGroup
	for i := 0; i < issuers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for _, c := range certs[i] {
				if _, err := st.Publish(c, now); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < perIssuer; j++ {
				st.ByIssuer(prins[i], now)
				st.BySubject(certs[i][j].Body.Subject, now)
			}
		}(i)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			st.Sweep(now.Add(10 * time.Minute))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			st.EvictRevoked(func([]byte, sfkey.PublicKey) bool { return false })
			st.Len()
			st.Stats()
		}
	}()
	wg.Wait()

	// Everything published; the sweeper raced but only ever removes
	// the short-validity fifth of each issuer's certs.
	if n := st.Len(); n < issuers*perIssuer*4/5 || n > issuers*perIssuer {
		t.Fatalf("Len = %d after concurrent load", n)
	}
	st.Sweep(now.Add(10 * time.Minute))
	if n := st.Len(); n != issuers*perIssuer*4/5 {
		t.Fatalf("Len = %d after final sweep, want %d", n, issuers*perIssuer*4/5)
	}
}
