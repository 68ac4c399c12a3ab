package cert

import (
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sfkey"
	"repro/internal/tag"
)

// decoded round-trips p through its transport encoding, as every
// received proof arrives.
func decoded(t *testing.T, p core.Proof) core.Proof {
	t.Helper()
	back, err := core.ParseProof(p.Sexp().Transport())
	if err != nil {
		t.Fatal(err)
	}
	return back
}

func decodedCert(t *testing.T, c *Cert) *Cert {
	t.Helper()
	return decoded(t, c).(*Cert)
}

// sigCost runs f and returns the signature verifications it made.
func sigCost(f func()) int64 {
	start := sfkey.SigVerifies()
	f()
	return sfkey.SigVerifies() - start
}

// bareCtx is a context with no memo, no shared cache and no revocation
// state: every Verify through it reaches Cert.check.
func bareCtx() *core.VerifyContext {
	ctx := core.NewVerifyContext()
	ctx.Now = cacheNow
	return ctx
}

// TestDecodedChainReverifiesWithoutSignaturesAfterBump: an epoch bump
// discards every cached verdict, so the decoded chain is walked again
// — revocation lookups, no public-key operations.
func TestDecodedChainReverifiesWithoutSignaturesAfterBump(t *testing.T) {
	local, _, rs := chainProof(t)
	proof := decoded(t, local)
	cache := core.NewProofCache(64)
	rs.AttachCache(cache)
	ctx := func() *core.VerifyContext {
		c := bareCtx()
		c.Cache = cache
		rs.Bind(c)
		return c
	}
	var err error
	if n := sigCost(func() { err = VerifyChain(ctx(), proof) }); err != nil || n == 0 {
		t.Fatalf("first verify: err=%v, %d signature checks (want >0)", err, n)
	}
	cache.BumpEpoch()
	if n := sigCost(func() { err = VerifyChain(ctx(), proof) }); err != nil || n != 0 {
		t.Fatalf("re-verify after bump: err=%v, %d signature checks (want 0)", err, n)
	}
	// The locally built chain has no memo: it pays again.
	cache.BumpEpoch()
	if n := sigCost(func() { err = VerifyChain(ctx(), local) }); err != nil || n == 0 {
		t.Fatalf("local chain: err=%v, %d signature checks (want >0)", err, n)
	}
}

// TestMutatedDecodedCertVerifiesFromScratch: the flag covers the
// signer and signature the certificate was decoded with, nothing else.
func TestMutatedDecodedCertVerifiesFromScratch(t *testing.T) {
	alice, kAlice := keys("memo-alice")
	mallory, kMallory := keys("memo-mallory")
	_, kBob := keys("memo-bob")
	local, err := Delegate(alice, kBob, kAlice, tag.All(), core.Forever)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(c *Cert) *Cert
	}{
		{"flipped signature byte", func(c *Cert) *Cert {
			c.Signature[3] ^= 1
			return c
		}},
		{"swapped signer", func(c *Cert) *Cert {
			// The issuer moves with the signer so rooting passes: only
			// the signature check stands between Mallory and Alice's grant.
			c.Signer, c.Body.Issuer = mallory.Public(), kMallory
			return c
		}},
		{"struct copy with a new signature", func(c *Cert) *Cert {
			cp := *c
			cp.Signature = append([]byte(nil), c.Signature...)
			cp.Signature[0] ^= 1
			return &cp
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := decodedCert(t, local)
			if n := sigCost(func() { err = c.Verify(bareCtx()) }); err != nil || n != 1 {
				t.Fatalf("first verify: err=%v, %d signature checks (want 1)", err, n)
			}
			if n := sigCost(func() { err = c.Verify(bareCtx()) }); err != nil || n != 0 {
				t.Fatalf("re-verify: err=%v, %d signature checks (want 0)", err, n)
			}
			m := tc.mutate(c)
			if n := sigCost(func() { err = m.Verify(bareCtx()) }); err == nil || n != 1 {
				t.Fatalf("mutated: err=%v, %d signature checks (want a refusal costing 1)", err, n)
			}
			if n := sigCost(func() { err = m.Verify(bareCtx()) }); err == nil || n != 1 {
				t.Fatalf("mutated again: err=%v, %d signature checks (want a refusal costing 1)", err, n)
			}
		})
	}
	t.Run("struct copy keeps the original good", func(t *testing.T) {
		c := decodedCert(t, local)
		if err := c.Verify(bareCtx()); err != nil {
			t.Fatal(err)
		}
		cp := *c
		cp.Signature = append([]byte(nil), c.Signature...)
		cp.Signature[0] ^= 1
		if err := cp.Verify(bareCtx()); err == nil {
			t.Fatal("copy with a forged signature verified")
		}
		if n := sigCost(func() { err = c.Verify(bareCtx()) }); err != nil || n != 0 {
			t.Fatalf("original after copy: err=%v, %d signature checks (want 0)", err, n)
		}
	})
}

// TestFailedSignatureIsNeverFlagged: a refusal is not remembered as
// anything, alone or in a batch, and a batch flags exactly its good
// certificates.
func TestFailedSignatureIsNeverFlagged(t *testing.T) {
	alice, kAlice := keys("memo-alice")
	var certs []*Cert
	for _, who := range []string{"memo-b1", "memo-b2", "memo-b3"} {
		_, k := keys(who)
		c, err := Delegate(alice, k, kAlice, tag.All(), core.Forever)
		if err != nil {
			t.Fatal(err)
		}
		certs = append(certs, c)
	}
	certs[1].Signature[0] ^= 1 // forged before it is sent
	var batch []*Cert
	for _, c := range certs {
		batch = append(batch, decodedCert(t, c))
	}

	forged := decodedCert(t, certs[1])
	for i := 0; i < 2; i++ {
		var err error
		if n := sigCost(func() { err = forged.Verify(bareCtx()) }); err == nil || n != 1 {
			t.Fatalf("forged verify %d: err=%v, %d signature checks (want a refusal costing 1)", i, err, n)
		}
	}
	if forged.memo.sigOK.Load() {
		t.Fatal("forged certificate flagged")
	}

	errs := VerifyBatch(bareCtx(), batch)
	for i, c := range batch {
		if bad := i == 1; (errs[i] != nil) != bad || c.memo.sigOK.Load() == bad {
			t.Fatalf("batch[%d]: err=%v flagged=%v", i, errs[i], c.memo.sigOK.Load())
		}
	}
	// A second batch leaves the known-good certificates out: only the
	// forged one is checked again.
	if n := sigCost(func() { errs = VerifyBatch(bareCtx(), batch) }); errs[1] == nil || n != 1 {
		t.Fatalf("second batch: errs=%v, %d signature checks (want 1)", errs, n)
	}
}

// TestKnownGoodCertStillRevoked: the flag skips the signature check,
// never the revocation check — a CRL by the certificate's signer voids
// it with no public-key operation, and a stranger's CRL voids nothing.
func TestKnownGoodCertStillRevoked(t *testing.T) {
	alice, kAlice := keys("memo-alice")
	mallory, _ := keys("memo-mallory")
	_, kBob := keys("memo-bob")
	local, err := Delegate(alice, kBob, kAlice, tag.All(), core.Forever)
	if err != nil {
		t.Fatal(err)
	}
	c := decodedCert(t, local)
	rs := NewRevocationStore()
	ctx := func() *core.VerifyContext {
		ctx := bareCtx()
		rs.Bind(ctx)
		return ctx
	}
	if err := c.Verify(ctx()); err != nil {
		t.Fatal(err)
	}
	valid := core.Until(cacheNow.Add(time.Hour))
	if _, errs := rs.Add(NewRevocationList(mallory, valid, c.Hash())); errs[0] != nil {
		t.Fatal(errs[0])
	}
	if n := sigCost(func() { err = c.Verify(ctx()) }); err != nil || n != 0 {
		t.Fatalf("after a stranger's CRL: err=%v, %d signature checks (want admit, 0)", err, n)
	}
	if _, errs := rs.Add(NewRevocationList(alice, valid, c.Hash())); errs[0] != nil {
		t.Fatal(errs[0])
	}
	if n := sigCost(func() { err = c.Verify(ctx()) }); err == nil || n != 0 {
		t.Fatalf("after the signer's CRL: err=%v, %d signature checks (want refusal, 0)", err, n)
	}
}

// TestConcurrentVerifyOfOneDecodedCert: the flag is safe to set and
// read from many verifiers at once (run under -race).
func TestConcurrentVerifyOfOneDecodedCert(t *testing.T) {
	alice, kAlice := keys("memo-alice")
	_, kBob := keys("memo-bob")
	local, err := Delegate(alice, kBob, kAlice, tag.All(), core.Forever)
	if err != nil {
		t.Fatal(err)
	}
	c := decodedCert(t, local)
	const workers = 8
	var wg sync.WaitGroup
	errs := make([]error, workers)
	n := sigCost(func() {
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for j := 0; j < 4 && errs[i] == nil; j++ {
					errs[i] = c.Verify(bareCtx())
				}
			}(i)
		}
		wg.Wait()
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if n < 1 || n > workers {
		t.Fatalf("%d signature checks across %d workers, want 1..%d", n, workers, workers)
	}
}
