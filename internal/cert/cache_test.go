package cert

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sfkey"
	"repro/internal/tag"
)

var cacheNow = time.Date(2026, 6, 10, 12, 0, 0, 0, time.UTC)

// chainProof builds a 3-certificate transitivity chain
// leaf => mid => root and returns the composed proof plus the leafmost
// certificate for revocation targeting.
func chainProof(t *testing.T) (core.Proof, *Cert, *RevocationStore) {
	t.Helper()
	root, kRoot := keys("cache-root")
	mid, kMid := keys("cache-mid")
	_, kLeaf := keys("cache-leaf")

	c1, err := Delegate(root, kMid, kRoot, tag.All(), core.Forever)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Delegate(mid, kLeaf, kMid, tag.All(), core.Forever)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := core.NewTransitivity(c2, c1)
	if err != nil {
		t.Fatal(err)
	}
	return tr, c2, NewRevocationStore()
}

// TestWarmVerifyCachesSignatureChecks is the fast-path acceptance
// check: verifying the same chain through a shared cache must cost at
// least 5x fewer signature verifications than verifying it cold.
func TestWarmVerifyCachesSignatureChecks(t *testing.T) {
	proof, _, _ := chainProof(t)
	const rounds = 20

	cold := func() int64 {
		start := sfkey.SigVerifies()
		for i := 0; i < rounds; i++ {
			ctx := core.NewVerifyContext()
			ctx.Now = cacheNow
			if err := proof.Verify(ctx); err != nil {
				t.Fatal(err)
			}
		}
		return sfkey.SigVerifies() - start
	}()

	cache := core.NewProofCache(64)
	warm := func() int64 {
		start := sfkey.SigVerifies()
		for i := 0; i < rounds; i++ {
			ctx := core.NewVerifyContext()
			ctx.Now = cacheNow
			ctx.Cache = cache
			if err := proof.Verify(ctx); err != nil {
				t.Fatal(err)
			}
		}
		return sfkey.SigVerifies() - start
	}()

	if cold == 0 {
		t.Fatal("cold path performed no signature verifications")
	}
	if warm*5 > cold {
		t.Fatalf("warm path too expensive: cold=%d warm=%d signature verifies (want >=5x reduction)", cold, warm)
	}
}

// TestEpochBumpKillsCachedVerdict is the revocation acceptance check:
// after a CRL lands in a RevocationStore attached to the cache, the
// previously cached verdict must not be served — re-verification sees
// the revocation and fails.
func TestEpochBumpKillsCachedVerdict(t *testing.T) {
	proof, leafCert, rs := chainProof(t)
	cache := core.NewProofCache(64)
	rs.AttachCache(cache)

	ctx := func() *core.VerifyContext {
		c := core.NewVerifyContext()
		c.Now = cacheNow
		c.Cache = cache
		rs.Bind(c) // Revoked hook plus the store's revocation view
		return c
	}

	// Warm the cache.
	if err := proof.Verify(ctx()); err != nil {
		t.Fatal(err)
	}
	start := sfkey.SigVerifies()
	if err := proof.Verify(ctx()); err != nil {
		t.Fatal(err)
	}
	if n := sfkey.SigVerifies() - start; n != 0 {
		t.Fatalf("warm verify performed %d signature checks, want 0", n)
	}

	// Revoke the leaf certificate: the store bumps the cache epoch.
	signer := sfkey.FromSeed([]byte("cache-mid")) // mid signed the leaf cert
	crl := NewRevocationList(signer, core.Until(cacheNow.Add(time.Hour)), leafCert.Hash())
	if _, errs := rs.Add(crl); errs[0] != nil {
		t.Fatal(errs[0])
	}

	if err := proof.Verify(ctx()); err == nil {
		t.Fatal("revoked chain verified from stale cached verdict")
	}
}

// TestFutureCRLBumpsEpochWhenFresh: a CRL installed before its
// NotBefore must invalidate cached verdicts again once it becomes
// fresh, not only at install time.
func TestFutureCRLBumpsEpochWhenFresh(t *testing.T) {
	cache := core.NewProofCache(16)
	rs := NewRevocationStore()
	rs.AttachCache(cache)
	signer, _ := keys("future-crl-signer")

	now := time.Now()
	crl := NewRevocationList(signer, core.Between(now.Add(150*time.Millisecond), now.Add(time.Hour)))
	before := cache.Epoch()
	if _, errs := rs.Add(crl); errs[0] != nil {
		t.Fatal(errs[0])
	}
	if cache.Epoch() != before+1 {
		t.Fatalf("epoch after install = %d, want %d", cache.Epoch(), before+1)
	}
	deadline := time.Now().Add(2 * time.Second)
	for cache.Epoch() < before+2 {
		if time.Now().After(deadline) {
			t.Fatal("no second epoch bump when the CRL became fresh")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestRevalidationDemandBypassesSharedCache: certificates demanding
// one-time revalidation are context-dependent and must never be
// served from the shared cache — every verifier consults the
// revalidator.
func TestRevalidationDemandBypassesSharedCache(t *testing.T) {
	alice, kAlice := keys("reval-alice")
	_, kBob := keys("reval-bob")
	c, err := SignWithRevalidation(alice, core.SpeaksFor{
		Subject: kBob, Issuer: kAlice, Tag: tag.All(),
	}, "https://reval.example")
	if err != nil {
		t.Fatal(err)
	}
	rv := NewRevalidator()
	cache := core.NewProofCache(64)

	mkCtx := func() *core.VerifyContext {
		ctx := core.NewVerifyContext()
		ctx.Now = cacheNow
		ctx.Cache = cache
		ctx.Revalidate = rv.Revalidate
		return ctx
	}
	if err := c.Verify(mkCtx()); err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 0 {
		t.Fatalf("revalidation-demanding cert entered the shared cache (len=%d)", cache.Len())
	}
	// Suspension must bite immediately, with no epoch bump needed.
	rv.Suspend(c.Hash())
	if err := c.Verify(mkCtx()); err == nil {
		t.Fatal("suspended certificate verified")
	}
}
