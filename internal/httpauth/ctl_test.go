package httpauth

import (
	"bytes"
	"fmt"
	"net/http"
	"testing"
	"time"

	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/principal"
	"repro/internal/prover"
	"repro/internal/sfkey"
)

// ctlWorld is one operator domain: the operator key, a delegated
// caller key, and the credential between them.
type ctlWorld struct {
	opPriv   *sfkey.PrivateKey
	operator principal.Principal
	caller   *sfkey.PrivateKey
	cred     *cert.Cert
}

func newCtlWorld(t *testing.T, ops ...string) *ctlWorld {
	t.Helper()
	op, err := sfkey.Generate()
	if err != nil {
		t.Fatal(err)
	}
	caller, err := sfkey.Generate()
	if err != nil {
		t.Fatal(err)
	}
	cred, err := cert.DelegateCtl(op, principal.KeyOf(caller.Public()), time.Hour, ops...)
	if err != nil {
		t.Fatal(err)
	}
	return &ctlWorld{
		opPriv:   op,
		operator: principal.KeyOf(op.Public()),
		caller:   caller,
		cred:     cred,
	}
}

func (w *ctlWorld) signer() *CtlSigner {
	return NewCtlSigner(prover.NewKeyClosure(w.caller), w.operator, w.cred)
}

func ctlRequest(t *testing.T, body string) (*http.Request, []byte) {
	t.Helper()
	b := []byte(body)
	req, err := http.NewRequest(http.MethodPost, "http://dir.example:8360/certdir/admin/crl", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return req, b
}

func TestCtlSignerGuardRoundTrip(t *testing.T) {
	w := newCtlWorld(t, cert.CtlAdmin)
	rs := cert.NewRevocationStore()
	guard := NewCtlGuard(w.operator, rs)
	guard.Cache = core.NewProofCache(64)
	rs.AttachCache(guard.Cache)

	req, body := ctlRequest(t, "(crl)")
	if err := w.signer().Sign(req, body, cert.CtlTag(cert.CtlAdmin)); err != nil {
		t.Fatalf("Sign: %v", err)
	}
	if err := guard.Authorize(req, body, cert.CtlTag(cert.CtlAdmin)); err != nil {
		t.Fatalf("Authorize: %v", err)
	}
	if st := guard.Stats(); st.Authorized != 1 || st.Denied != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestCtlProofCacheFastPath shows control-plane auth riding the
// shared verified-proof cache: after one guard has verified the
// credential chain, another verifier bound to the same revocation
// store (a second listener, a restarted guard) re-verifies only the
// fresh request-hash leaf — the chain's verdict is a cache hit, not a
// second signature check.
func TestCtlProofCacheFastPath(t *testing.T) {
	w := newCtlWorld(t, cert.CtlAdmin)
	rs := cert.NewRevocationStore()
	cache := core.NewProofCache(64)
	rs.AttachCache(cache)
	s := w.signer()

	authorize := func(g *CtlGuard, body string) {
		t.Helper()
		req, b := ctlRequest(t, body)
		if err := s.Sign(req, b, cert.CtlTag(cert.CtlAdmin)); err != nil {
			t.Fatalf("Sign: %v", err)
		}
		if err := g.Authorize(req, b, cert.CtlTag(cert.CtlAdmin)); err != nil {
			t.Fatalf("Authorize: %v", err)
		}
	}
	guard1 := NewCtlGuard(w.operator, rs)
	guard1.Cache = cache
	authorize(guard1, "(crl one)")

	// Same guard, new request: the persistent context's memo carries
	// the chain verdict — no chain re-verification.
	cold := sfkey.SigVerifies()
	authorize(guard1, "(crl two)")
	if warm := sfkey.SigVerifies() - cold; warm > 1 {
		t.Fatalf("warm same-guard call performed %d signature verifications, want <= 1", warm)
	}

	// Fresh guard sharing cache and revocation view: its cold start
	// rides the SHARED cache for the credential chain.
	guard2 := NewCtlGuard(w.operator, rs)
	guard2.Cache = cache
	cold = sfkey.SigVerifies()
	hitsBefore := cache.Hits()
	authorize(guard2, "(crl three)")
	if warm := sfkey.SigVerifies() - cold; warm > 1 {
		t.Fatalf("fresh guard performed %d signature verifications, want <= 1 (shared cache)", warm)
	}
	if cache.Hits() == hitsBefore {
		t.Fatal("no shared proof-cache hits for the credential chain")
	}
}

func TestCtlGuardDenials(t *testing.T) {
	w := newCtlWorld(t, cert.CtlPublish) // publish-only credential
	rs := cert.NewRevocationStore()
	guard := NewCtlGuard(w.operator, rs)

	// Missing header entirely.
	req, body := ctlRequest(t, "(crl)")
	if err := guard.Authorize(req, body, cert.CtlTag(cert.CtlAdmin)); err != ErrCtlNoProof {
		t.Fatalf("missing header: got %v, want ErrCtlNoProof", err)
	}

	// Wrong scheme.
	req, body = ctlRequest(t, "(crl)")
	req.Header.Set("Authorization", "Basic Zm9vOmJhcg==")
	if err := guard.Authorize(req, body, cert.CtlTag(cert.CtlAdmin)); err == nil {
		t.Fatal("wrong scheme accepted")
	}

	// Wrong tag: a publish credential cannot satisfy the admin tag —
	// the client-side prover already refuses to build the proof.
	req, body = ctlRequest(t, "(crl)")
	if err := w.signer().Sign(req, body, cert.CtlTag(cert.CtlAdmin)); err == nil {
		t.Fatal("publish-only signer built an admin proof")
	}
	// And a publish proof replayed against the admin tag fails
	// server-side on tag coverage.
	if err := w.signer().Sign(req, body, cert.CtlTag(cert.CtlPublish)); err != nil {
		t.Fatalf("Sign publish: %v", err)
	}
	if err := guard.Authorize(req, body, cert.CtlTag(cert.CtlAdmin)); err == nil {
		t.Fatal("publish proof accepted for admin tag")
	}

	// Tampered body: the proof subject is the request hash, so a body
	// swap after signing must fail.
	req, body = ctlRequest(t, "(crl real)")
	s := w.signer()
	if err := s.Sign(req, body, cert.CtlTag(cert.CtlPublish)); err != nil {
		t.Fatalf("Sign: %v", err)
	}
	if err := guard.Authorize(req, []byte("(crl forged)"), cert.CtlTag(cert.CtlPublish)); err == nil {
		t.Fatal("tampered body accepted")
	}

	if st := guard.Stats(); st.Denied == 0 {
		t.Fatalf("denials not counted: %+v", st)
	}
}

// TestCtlGuardExpiredChain: a credential whose window has lapsed is
// refused even though the signature is perfect. The signer's clock is
// frozen inside the window so it still builds the proof; the guard
// verifies at real now, after expiry.
func TestCtlGuardExpiredChain(t *testing.T) {
	op, _ := sfkey.Generate()
	caller, _ := sfkey.Generate()
	operator := principal.KeyOf(op.Public())
	then := time.Now().Add(-2 * time.Hour)
	cred, err := cert.Delegate(op, principal.KeyOf(caller.Public()), operator,
		cert.CtlTag(cert.CtlAdmin), core.Between(then, then.Add(time.Hour)))
	if err != nil {
		t.Fatal(err)
	}
	s := NewCtlSigner(prover.NewKeyClosure(caller), operator, cred)
	s.Clock = func() time.Time { return then.Add(time.Minute) }

	req, body := ctlRequest(t, "(crl)")
	if err := s.Sign(req, body, cert.CtlTag(cert.CtlAdmin)); err != nil {
		t.Fatalf("Sign in window: %v", err)
	}
	guard := NewCtlGuard(operator, cert.NewRevocationStore())
	if err := guard.Authorize(req, body, cert.CtlTag(cert.CtlAdmin)); err == nil {
		t.Fatal("expired chain accepted")
	}
}

// TestCtlGuardRevokedCredential: installing a CRL naming the
// credential locks the holder out immediately — the epoch bump kills
// the cached verdict and re-verification hits the Revoked check.
func TestCtlGuardRevokedCredential(t *testing.T) {
	w := newCtlWorld(t, cert.CtlAdmin)
	rs := cert.NewRevocationStore()
	guard := NewCtlGuard(w.operator, rs)
	guard.Cache = core.NewProofCache(64)
	rs.AttachCache(guard.Cache)
	s := w.signer()

	req, body := ctlRequest(t, "(crl)")
	if err := s.Sign(req, body, cert.CtlTag(cert.CtlAdmin)); err != nil {
		t.Fatal(err)
	}
	if err := guard.Authorize(req, body, cert.CtlTag(cert.CtlAdmin)); err != nil {
		t.Fatalf("before revocation: %v", err)
	}
	if _, errs := rs.Add(cert.NewRevocationList(w.opPriv, core.Forever, w.cred.Hash())); errs[0] != nil {
		t.Fatal(errs[0])
	}
	// Same request, same proof: now refused.
	if err := guard.Authorize(req, body, cert.CtlTag(cert.CtlAdmin)); err == nil {
		t.Fatal("revoked operator credential still authorized")
	}
}

// TestCtlSignerSweepsMintedEdges: each Sign mints a unique
// request-hash edge; a long-lived signer must shed expired ones
// instead of accumulating an edge per mutation forever.
func TestCtlSignerSweepsMintedEdges(t *testing.T) {
	w := newCtlWorld(t, cert.CtlAdmin)
	s := w.signer()
	now := time.Now()
	s.Clock = func() time.Time { return now }
	for i := 0; i < 20; i++ {
		req, body := ctlRequest(t, fmt.Sprintf("(crl %d)", i))
		if err := s.Sign(req, body, cert.CtlTag(cert.CtlAdmin)); err != nil {
			t.Fatal(err)
		}
		// Advance past the mint TTL so earlier leaves expire.
		now = now.Add(CtlMintTTL + time.Second)
	}
	// Without sweeping the graph would hold ~20 minted leaves (plus
	// the credential); with per-TTL sweeps only the recent window
	// survives.
	if n := s.Prover.EdgeCount(); n > 5 {
		t.Fatalf("signer prover holds %d edges after 20 signs; expired mints not swept", n)
	}
}
