package rmi

import (
	"strings"
	"testing"
	"time"

	"repro/internal/cert"
	"repro/internal/channel/secure"
	"repro/internal/core"
	"repro/internal/principal"
	"repro/internal/prover"
	"repro/internal/sfkey"
)

// TestRevocationInvalidatesCachedAuthorization drives the end-to-end
// fast path and then revokes it: the first call verifies and caches
// the client's proof chain; installing a CRL bumps the proof cache's
// revocation epoch, which must flush every cached verdict — the next
// call re-verifies, sees the revocation, and is denied.
func TestRevocationInvalidatesCachedAuthorization(t *testing.T) {
	serverKey := sfkey.FromSeed([]byte("revoke-server"))
	userKey := sfkey.FromSeed([]byte("revoke-user"))
	issuer := principal.KeyOf(serverKey.Public())
	user := principal.KeyOf(userKey.Public())

	srv := NewServer()
	srv.Cache = core.NewProofCache(64) // private cache isolates the test
	rs := cert.NewRevocationStore()
	rs.AttachCache(srv.Cache)
	srv.Revocations = rs
	if err := srv.Register("echo", &EchoService{}, issuer, nil); err != nil {
		t.Fatal(err)
	}
	l, err := secure.Listen("127.0.0.1:0", &secure.Identity{Priv: serverKey})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go srv.Serve(l)

	grant := ObjectTag("echo")
	d, err := cert.Delegate(serverKey, user, issuer, grant, core.Forever)
	if err != nil {
		t.Fatal(err)
	}
	pv := prover.New()
	pv.AddClosure(prover.NewKeyClosure(userKey))
	pv.AddProof(d)
	id, err := secure.NewIdentity()
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(secure.Dialer{ID: id}, l.Addr().String(), pv)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var reply EchoReply
	if err := c.Call("echo", "Echo", EchoArgs{Msg: "warm"}, &reply); err != nil {
		t.Fatal(err)
	}
	// Second call rides the cached, already verified proof.
	if err := c.Call("echo", "Echo", EchoArgs{Msg: "cached"}, &reply); err != nil {
		t.Fatal(err)
	}

	// Revoke the delegation; the store bumps the attached cache epoch.
	crl := cert.NewRevocationList(serverKey, core.Until(time.Now().Add(time.Hour)), d.Hash())
	if _, errs := rs.Add(crl); errs[0] != nil {
		t.Fatal(errs[0])
	}

	err = c.Call("echo", "Echo", EchoArgs{Msg: "stale?"}, &reply)
	if err == nil {
		t.Fatal("call authorized from stale cached verdict after revocation")
	}
	if !strings.Contains(err.Error(), "revoked") && !strings.Contains(err.Error(), "challenge") {
		t.Fatalf("unexpected error after revocation: %v", err)
	}
}
