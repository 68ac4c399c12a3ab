package certdir

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/httpauth"
	"repro/internal/principal"
	"repro/internal/prover"
	"repro/internal/sfkey"
	"repro/internal/tag"
)

// ctlDomain is one guarded directory: store, revocation state,
// service with an enforcing Guard, and its base client (unsigned).
type ctlDomain struct {
	store *Store
	revs  *cert.RevocationStore
	svc   *Service
	open  *Client // unsigned client
	url   string
}

func newCtlDomain(t *testing.T, operator principal.Principal) *ctlDomain {
	t.Helper()
	st := NewStore(4)
	svc := NewService(st)
	svc.Revocations = cert.NewRevocationStore()
	svc.Guard = httpauth.NewCtlGuard(operator, svc.Revocations)
	ts := httptest.NewServer(svc)
	t.Cleanup(ts.Close)
	return &ctlDomain{store: st, revs: svc.Revocations, svc: svc, open: NewClient(ts.URL), url: ts.URL}
}

// signedClient returns a client whose mutating requests carry proofs
// built from the given key and credential chain.
func signedClient(url string, operator principal.Principal, key *sfkey.PrivateKey, chain ...*cert.Cert) *Client {
	c := NewClient(url)
	c.Ctl = httpauth.NewCtlSigner(prover.NewKeyClosure(key), operator, chain...)
	return c
}

// TestCtlAuthDenialPaths drives every denial class over the live HTTP
// service: missing chain, wrong tag, expired chain — and checks the
// read-only surface stays open throughout.
func TestCtlAuthDenialPaths(t *testing.T) {
	now := time.Now()
	v := core.Between(now.Add(-time.Minute), now.Add(time.Hour))
	op := sfkey.FromSeed([]byte("ctl-denial-operator"))
	operator := principal.KeyOf(op.Public())
	d := newCtlDomain(t, operator)

	issuer := sfkey.FromSeed([]byte("ctl-denial-issuer"))
	subject := principal.KeyOf(sfkey.FromSeed([]byte("ctl-denial-subject")).Public())
	delegation := delegate(t, issuer, subject, tag.Prefix("files/"), v)

	// Missing chain: every mutating endpoint refuses, with the 401
	// challenge naming the operator.
	if err := d.open.Publish(delegation); err == nil {
		t.Fatal("unauthenticated publish accepted")
	} else if !strings.Contains(err.Error(), "401") {
		t.Fatalf("publish denial is not a challenge: %v", err)
	}
	if _, err := d.open.Remove(delegation.Hash()); err == nil {
		t.Fatal("unauthenticated remove accepted")
	}
	crl := cert.NewRevocationList(issuer, v, delegation.Hash())
	if err := d.open.PushCRL(crl); err == nil {
		t.Fatal("unauthenticated CRL install accepted")
	}
	if _, err := d.open.ReloadCRLs(); err == nil {
		t.Fatal("unauthenticated reload accepted")
	}
	if d.store.Len() != 0 || len(d.revs.Lists()) != 0 {
		t.Fatal("denied mutations changed state")
	}

	// Wrong tag: a publish-only credential cannot reach the admin
	// surface (the signer has no chain for the admin tag, so signing
	// itself fails — nothing even reaches the wire).
	pubKey := sfkey.FromSeed([]byte("ctl-denial-publisher"))
	pubCred, err := cert.DelegateCtl(op, principal.KeyOf(pubKey.Public()), time.Hour, cert.CtlPublish)
	if err != nil {
		t.Fatal(err)
	}
	publisher := signedClient(d.url, operator, pubKey, pubCred)
	if err := publisher.Publish(delegation); err != nil {
		t.Fatalf("publish credential refused on publish: %v", err)
	}
	if err := publisher.PushCRL(crl); err == nil {
		t.Fatal("publish credential reached the admin surface")
	}
	if len(d.revs.Lists()) != 0 {
		t.Fatal("admin mutation applied under a publish credential")
	}

	// Expired chain: a credential whose window has lapsed signs fine
	// under a frozen clock but the service rejects it at real now.
	oldKey := sfkey.FromSeed([]byte("ctl-denial-expired"))
	then := now.Add(-2 * time.Hour)
	oldCred, err := cert.Delegate(op, principal.KeyOf(oldKey.Public()), operator,
		cert.CtlTag(cert.CtlAdmin), core.Between(then, then.Add(time.Hour)))
	if err != nil {
		t.Fatal(err)
	}
	expired := signedClient(d.url, operator, oldKey, oldCred)
	expired.Ctl.Clock = func() time.Time { return then.Add(time.Minute) }
	if err := expired.PushCRL(crl); err == nil {
		t.Fatal("expired admin credential accepted")
	}

	// The read-only surface never needed a proof.
	if _, err := d.open.ByIssuer(principal.KeyOf(issuer.Public())); err != nil {
		t.Fatalf("query blocked by guard: %v", err)
	}
	if _, _, _, err := d.open.MerkleRoot(); err != nil {
		t.Fatalf("gossip pull blocked by guard: %v", err)
	}
	if gs := d.svc.Guard.Stats(); gs.Denied < 4 {
		t.Fatalf("denials not counted: %+v", gs)
	}
}

// TestCtlAuthAcceptedAndFastPath: an operator chain for (sf-ctl
// admin) is accepted, and repeated admin calls ride the proof cache —
// the credential chain is signature-verified once, not per call.
func TestCtlAuthAcceptedFastPath(t *testing.T) {
	now := time.Now()
	v := core.Between(now.Add(-time.Minute), now.Add(time.Hour))
	op := sfkey.FromSeed([]byte("ctl-accept-operator"))
	operator := principal.KeyOf(op.Public())
	d := newCtlDomain(t, operator)
	// A private cache so other tests' traffic cannot pollute the
	// counters; the guard and store share it like the daemons share
	// the process-wide one.
	cache := core.NewProofCache(256)
	d.svc.Guard.Cache = cache
	d.revs.AttachCache(cache)

	adminKey := sfkey.FromSeed([]byte("ctl-accept-admin"))
	adminCred, err := cert.DelegateCtl(op, principal.KeyOf(adminKey.Public()), time.Hour, cert.CtlAdmin)
	if err != nil {
		t.Fatal(err)
	}
	admin := signedClient(d.url, operator, adminKey, adminCred)

	issuer := sfkey.FromSeed([]byte("ctl-accept-issuer"))
	for i, h := range [][]byte{[]byte("h-one"), []byte("h-two"), []byte("h-three")} {
		crl := cert.NewRevocationList(issuer, v, h)
		if err := admin.PushCRL(crl); err != nil {
			t.Fatalf("admin call %d refused: %v", i, err)
		}
	}
	if got := len(d.revs.Lists()); got != 3 {
		t.Fatalf("%d CRLs installed, want 3", got)
	}
	gs := d.svc.Guard.Stats()
	if gs.Authorized != 3 || gs.Denied != 0 {
		t.Fatalf("guard stats %+v", gs)
	}
	// Note each PushCRL bumps the epoch (a CRL landed), so the NEXT
	// call's chain is re-verified — that is revocation soundness, not
	// a cache failure. Repeat admin calls with no interleaved CRL
	// install to observe the warm path.
	cold := sfkey.SigVerifies()
	dup := cert.NewRevocationList(issuer, v, []byte("h-three"))
	for i := 0; i < 3; i++ {
		if err := admin.PushCRL(dup); err != nil {
			t.Fatalf("warm admin call %d refused: %v", i, err)
		}
	}
	// Budget per warm call: 1 CRL-signature verify (Add always
	// verifies before dedup) + 1 fresh request-hash leaf. The first
	// warm call additionally re-verifies the credential once — the
	// third install above bumped the epoch, which is revocation
	// soundness. 3*2 + 1 = 7. Without the cache the credential would
	// re-verify on every call (9+).
	warm := sfkey.SigVerifies() - cold
	if warm > 7 {
		t.Fatalf("3 warm admin calls performed %d signature verifications; chain not cached", warm)
	}
	// The credential's verdict was published to the shared cache, so
	// any OTHER verifier bound to the same revocation view (a second
	// listener, a restarted guard) starts warm; the cross-verifier hit
	// itself is asserted in httpauth's TestCtlProofCacheFastPath.
	if cache.Len() == 0 {
		t.Fatal("credential verdict never entered the shared proof cache")
	}
}

// TestCtlOperatorRevocationLockout is the acceptance scenario, run
// under -race in CI: two guarded directories gossip with signed
// pushes; an admin's credential works at A until the operator revokes
// it with a CRL installed AT PEER B; one gossip round later the CRL
// has propagated to A and the same admin — same key, same credential,
// same request shape — is locked out of A, end to end through the
// live pipeline it used to administer.
func TestCtlOperatorRevocationLockout(t *testing.T) {
	now := time.Now()
	v := core.Between(now.Add(-time.Minute), now.Add(time.Hour))
	op := sfkey.FromSeed([]byte("ctl-lockout-operator"))
	operator := principal.KeyOf(op.Public())

	dA := newCtlDomain(t, operator)
	dB := newCtlDomain(t, operator)

	// Each directory signs its own pushes with a daemon credential
	// covering both operation classes (what sf-certd -ctl-key/-ctl-cert
	// wires up).
	keyA := sfkey.FromSeed([]byte("ctl-lockout-daemon-a"))
	keyB := sfkey.FromSeed([]byte("ctl-lockout-daemon-b"))
	credA, err := cert.DelegateCtl(op, principal.KeyOf(keyA.Public()), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	credB, err := cert.DelegateCtl(op, principal.KeyOf(keyB.Public()), time.Hour)
	if err != nil {
		t.Fatal(err)
	}

	repA := NewReplicator(dA.store, []*Client{signedClient(dB.url, operator, keyA, credA)})
	repA.Revocations = dA.revs
	repA.Interval = 100 * time.Millisecond
	repA.Start()
	t.Cleanup(repA.Stop)
	dA.svc.Replicator = repA

	repB := NewReplicator(dB.store, []*Client{signedClient(dA.url, operator, keyB, credB)})
	repB.Revocations = dB.revs
	repB.Interval = 100 * time.Millisecond
	repB.Start()
	t.Cleanup(repB.Stop)
	dB.svc.Replicator = repB

	// The admin holds a delegated admin credential and talks to A.
	adminKey := sfkey.FromSeed([]byte("ctl-lockout-admin"))
	adminCred, err := cert.DelegateCtl(op, principal.KeyOf(adminKey.Public()), time.Hour, cert.CtlAdmin)
	if err != nil {
		t.Fatal(err)
	}
	adminAtA := signedClient(dA.url, operator, adminKey, adminCred)

	issuer := sfkey.FromSeed([]byte("ctl-lockout-issuer"))
	if err := adminAtA.PushCRL(cert.NewRevocationList(issuer, v, []byte("some-cert"))); err != nil {
		t.Fatalf("admin call before revocation refused: %v", err)
	}
	// That CRL also rides gossip B-ward (signed pushes work).
	waitFor(t, "authenticated CRL gossip A -> B", func() bool {
		return len(dB.revs.Lists()) >= 1
	})

	// The operator revokes the ADMIN'S credential — installed at B,
	// not at A, through B's own guarded admin endpoint using the
	// operator's root authority (the operator key is its own
	// credential: reqPrin -> operator minted directly).
	rootAtB := signedClient(dB.url, operator, op)
	if err := rootAtB.PushCRL(cert.NewRevocationList(op, v, adminCred.Hash())); err != nil {
		t.Fatalf("operator root CRL install at B refused: %v", err)
	}
	// B is already locked for this admin; A follows within one gossip
	// round (B pushes, or A pulls — both paths are live).
	waitFor(t, "lockout CRL propagation B -> A", func() bool {
		return dA.revs.Has(cert.NewRevocationList(op, v, adminCred.Hash()).Hash())
	})

	// Same admin, same credential, same endpoint that worked before:
	// locked out at A without A ever being told directly.
	if err := adminAtA.PushCRL(cert.NewRevocationList(issuer, v, []byte("another-cert"))); err == nil {
		t.Fatal("revoked admin credential still accepted at A")
	}
	// And at B, for completeness.
	adminAtB := signedClient(dB.url, operator, adminKey, adminCred)
	if err := adminAtB.PushCRL(cert.NewRevocationList(issuer, v, []byte("third-cert"))); err == nil {
		t.Fatal("revoked admin credential still accepted at B")
	}
	// The daemons' own credentials are untouched: gossip keeps
	// flowing after the lockout.
	if err := signedClient(dA.url, operator, keyA, credA).Publish(
		delegate(t, issuer, principal.KeyOf(adminKey.Public()), tag.Prefix("files/"), v)); err != nil {
		t.Fatalf("daemon credential broken by admin lockout: %v", err)
	}
	waitFor(t, "publish replication after lockout", func() bool { return dB.store.Len() >= 1 })
}
