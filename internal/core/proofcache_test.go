package core

import (
	"testing"
	"time"

	"repro/internal/sfkey"
	"repro/internal/tag"
)

var cacheNow = time.Date(2026, 6, 10, 12, 0, 0, 0, time.UTC)

func someHash(b byte) [32]byte {
	var h [32]byte
	h[0] = b
	return h
}

func TestProofCacheLookupStore(t *testing.T) {
	c := NewProofCache(16)
	h := someHash(1)
	if c.Lookup(h, cacheNow, ViewAny) {
		t.Fatal("hit on empty cache")
	}
	c.Store(h, Forever, c.Epoch(), 0)
	if !c.Lookup(h, cacheNow, ViewAny) {
		t.Fatal("miss after store")
	}
	if c.Hits() != 1 || c.Misses() != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", c.Hits(), c.Misses())
	}
}

func TestProofCacheValidityWindow(t *testing.T) {
	c := NewProofCache(16)
	h := someHash(2)
	c.Store(h, Until(cacheNow.Add(time.Hour)), c.Epoch(), 0)
	if !c.Lookup(h, cacheNow, ViewAny) {
		t.Fatal("miss inside validity window")
	}
	if c.Lookup(h, cacheNow.Add(2*time.Hour), ViewAny) {
		t.Fatal("hit outside validity window")
	}
	// The expired entry is lazily evicted.
	if c.Len() != 0 {
		t.Fatalf("Len = %d after expired lookup, want 0", c.Len())
	}
}

func TestProofCacheEpochBumpInvalidates(t *testing.T) {
	c := NewProofCache(16)
	h := someHash(3)
	c.Store(h, Forever, c.Epoch(), 0)
	c.BumpEpoch()
	if c.Lookup(h, cacheNow, ViewAny) {
		t.Fatal("cached verdict survived an epoch bump")
	}
	// Storing after the bump works under the new epoch.
	c.Store(h, Forever, c.Epoch(), 0)
	if !c.Lookup(h, cacheNow, ViewAny) {
		t.Fatal("miss after re-store under new epoch")
	}
}

// TestProofCacheStaleEpochStoreDiscarded covers the CRL-lands-mid-
// verification race: a verdict computed under an epoch that has since
// been bumped must not enter the cache.
func TestProofCacheStaleEpochStoreDiscarded(t *testing.T) {
	c := NewProofCache(16)
	h := someHash(4)
	epochBefore := c.Epoch()
	c.BumpEpoch() // CRL installed while "verification" was running
	c.Store(h, Forever, epochBefore, 0)
	if c.Lookup(h, cacheNow, ViewAny) {
		t.Fatal("verdict from a pre-bump verification was cached")
	}
}

// TestProofCacheViewIsolation: verdicts checked under one revocation
// view must not satisfy verifiers holding a different view, while
// non-enforcing verifiers (ViewAny) may reuse anything.
func TestProofCacheViewIsolation(t *testing.T) {
	c := NewProofCache(16)
	h := someHash(5)
	c.Store(h, Forever, c.Epoch(), 7)
	if !c.Lookup(h, cacheNow, 7) {
		t.Fatal("same-view lookup missed")
	}
	if c.Lookup(h, cacheNow, 8) {
		t.Fatal("verdict crossed revocation views")
	}
	if !c.Lookup(h, cacheNow, ViewAny) {
		t.Fatal("non-enforcing lookup rejected a stricter verdict")
	}
}

// TestProofCacheViewNoDisplacement: an enforcing view's verdict keeps
// its slot against other views (no ping-pong eviction), while a
// view-0 verdict is upgraded in place by an enforcing one.
func TestProofCacheViewNoDisplacement(t *testing.T) {
	c := NewProofCache(16)
	h := someHash(6)
	c.Store(h, Forever, c.Epoch(), 7)
	c.Store(h, Forever, c.Epoch(), 8) // must not displace view 7
	if !c.Lookup(h, cacheNow, 7) {
		t.Fatal("view 7 verdict displaced by view 8 store")
	}
	c.Store(h, Forever, c.Epoch(), 0) // view 0 must not downgrade
	if !c.Lookup(h, cacheNow, 7) {
		t.Fatal("view 7 verdict downgraded by view-0 store")
	}

	h2 := someHash(9)
	c.Store(h2, Forever, c.Epoch(), 0)
	c.Store(h2, Forever, c.Epoch(), 7) // enforcing upgrade allowed
	if !c.Lookup(h2, cacheNow, 7) {
		t.Fatal("view-0 entry not upgraded by enforcing verdict")
	}
	if !c.Lookup(h2, cacheNow, ViewAny) {
		t.Fatal("upgraded entry lost for non-enforcing readers")
	}
}

func TestProofCacheSizeBound(t *testing.T) {
	const max = 32
	c := NewProofCache(max)
	for i := 0; i < 4*max; i++ {
		var h [32]byte
		h[0], h[1] = byte(i), byte(i>>8)+1
		c.Store(h, Forever, c.Epoch(), 0)
	}
	if c.Len() > max {
		t.Fatalf("Len = %d exceeds bound %d", c.Len(), max)
	}
}

// TestProofCacheEvictionPrefersExpired pins the eviction priority
// without sleeping: the injected clock says the short-lived entries
// are past their validity, so a full cache sheds exactly those and
// keeps the long-lived verdicts. Before the clock was injectable this
// test would have had to sleep real wall time across the window (and
// could flake near the boundary).
func TestProofCacheEvictionPrefersExpired(t *testing.T) {
	const max = 8
	c := NewProofCache(max)
	clock := cacheNow
	c.SetClock(func() time.Time { return clock })

	// Half the cache expires at +1m, half lives an hour.
	var keepers [][32]byte
	for i := 0; i < max; i++ {
		h := someHash(byte(i + 1))
		if i%2 == 0 {
			c.Store(h, Until(cacheNow.Add(time.Minute)), c.Epoch(), 0)
		} else {
			c.Store(h, Until(cacheNow.Add(time.Hour)), c.Epoch(), 0)
			keepers = append(keepers, h)
		}
	}
	// Advance the injected clock past the short window — no sleep —
	// and force an eviction by inserting into the full cache.
	clock = cacheNow.Add(2 * time.Minute)
	c.Store(someHash(100), Until(cacheNow.Add(time.Hour)), c.Epoch(), 0)
	for _, h := range keepers {
		if !c.Lookup(h, clock, ViewAny) {
			t.Fatal("eviction displaced a live long-lived verdict while expired entries existed")
		}
	}
	if !c.Lookup(someHash(100), clock, ViewAny) {
		t.Fatal("newly stored entry missing after eviction")
	}
}

// TestProofCacheEvict: targeted single-entry eviction (the
// directory→prover invalidation hook) drops exactly the named verdict.
func TestProofCacheEvict(t *testing.T) {
	c := NewProofCache(16)
	h, other := someHash(1), someHash(2)
	c.Store(h, Forever, c.Epoch(), 0)
	c.Store(other, Forever, c.Epoch(), 0)
	if !c.Evict(h) {
		t.Fatal("Evict reported absent for a stored entry")
	}
	if c.Evict(h) {
		t.Fatal("second Evict reported present")
	}
	if c.Lookup(h, cacheNow, ViewAny) {
		t.Fatal("evicted verdict still served")
	}
	if !c.Lookup(other, cacheNow, ViewAny) {
		t.Fatal("Evict disturbed an unrelated entry")
	}
}

func TestPortable(t *testing.T) {
	a := key("alice")
	refl := NewReflex(a)
	if !Portable(refl) {
		t.Fatal("reflexivity should be portable")
	}
	asm := Assume(SpeaksFor{Subject: a, Issuer: a, Tag: tag.All()})
	if Portable(asm) {
		t.Fatal("assumptions must not be portable")
	}
}

// TestVerifyMemoSharedCache checks that a context with a shared cache
// keeps assumption-bearing subtrees out of it, and that assumption
// verdicts never transfer between contexts.
func TestVerifyMemoSharedCache(t *testing.T) {
	cache := NewProofCache(16)
	a := key("alice")
	link := SpeaksFor{Subject: a, Issuer: a, Tag: tag.All()}
	asm := Assume(link)

	ctx := NewVerifyContext()
	ctx.Now = cacheNow
	ctx.Cache = cache
	ctx.Assume(link)
	if err := asm.Verify(ctx); err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 0 {
		t.Fatalf("assumption verdict entered the shared cache (len=%d)", cache.Len())
	}

	// A second context without the assumption must fail even though
	// the first verified: the verdict was context-local.
	ctx2 := NewVerifyContext()
	ctx2.Now = cacheNow
	ctx2.Cache = cache
	if err := asm.Verify(ctx2); err == nil {
		t.Fatal("assumption verified without being held")
	}
}

// TestVerifyMemoUnidentifiedRevokedBypassesCache: an ad-hoc Revoked
// callback without a revocation view must neither read nor write the
// shared cache.
func TestVerifyMemoUnidentifiedRevokedBypassesCache(t *testing.T) {
	cache := NewProofCache(16)
	a := key("alice")
	// A composite node (transitivity of two reflexivity axioms) so the
	// verification path runs through the memo machinery.
	tr, err := NewTransitivity(NewReflex(a), NewReflex(a))
	if err != nil {
		t.Fatal(err)
	}
	h := tr.Sexp().Hash()
	// Poison the cache as a different view would see it.
	cache.Store(h, Forever, cache.Epoch(), 0)

	ctx := NewVerifyContext()
	ctx.Now = cacheNow
	ctx.Cache = cache
	ctx.Revoked = func([]byte, sfkey.PublicKey) bool { return false } // ad-hoc, no view
	hitsBefore, lenBefore := cache.Hits(), cache.Len()
	if err := tr.Verify(ctx); err != nil {
		t.Fatal(err)
	}
	if cache.Hits() != hitsBefore {
		t.Fatal("enforcing verifier without a view read the shared cache")
	}
	if cache.Len() != lenBefore {
		t.Fatal("enforcing verifier without a view wrote the shared cache")
	}
}
