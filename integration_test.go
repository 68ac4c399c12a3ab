package repro

import (
	"io"
	"net/http/httptest"
	"testing"
	"testing/fstest"
	"time"

	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/httpauth"
	"repro/internal/namesvc"
	"repro/internal/principal"
	"repro/internal/prover"
	"repro/internal/sfkey"
	"repro/internal/webfs"
)

// TestNameDrivenSharing exercises the paper's common case (section
// 4.4): authorization information is collected in the course of
// resolving names, so proofs build incrementally with shallow graph
// traversals. Alice publishes her file server under the name
// alice·"files"; Bob knows only Alice's key and the name; resolution
// yields both the service and the delegation chain.
func TestNameDrivenSharing(t *testing.T) {
	aliceKey := sfkey.FromSeed([]byte("int-alice"))
	serverKey := sfkey.FromSeed([]byte("int-server"))
	bobKey := sfkey.FromSeed([]byte("int-bob"))
	alice := principal.KeyOf(aliceKey.Public())
	serverHash := principal.HashOfKey(serverKey.Public())
	bob := principal.KeyOf(bobKey.Public())

	// The running service, controlled by the server key's hash.
	srv := webfs.New(serverHash, "alice-files", fstest.MapFS{
		"pub/doc.txt": {Data: []byte("named and shared")},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Alice's namespace binds "files" to the server principal, and
	// the server's owner delegated control of /pub/ to Alice.
	nameCert, err := namesvc.BindNameTTL(aliceKey, "files", serverHash, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	ownerToAlice, err := webfs.ShareSubtree(serverKey, serverHash, alice, "alice-files", "/pub/", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	// Alice delegates onward to Bob.
	aliceToBob, err := cert.Delegate(aliceKey, bob, alice,
		httpauth.SubtreeTag([]string{"GET"}, "alice-files", "/pub/"), core.Until(time.Now().Add(time.Hour)))
	if err != nil {
		t.Fatal(err)
	}

	// Bob resolves alice·"files" to discover the service principal,
	// digesting the certificates he collects along the way.
	target, steps, err := namesvc.Resolve(alice, []string{"files"}, []*cert.Cert{nameCert})
	if err != nil {
		t.Fatal(err)
	}
	if !principal.Equal(target, serverHash) {
		t.Fatalf("resolved %s, want %s", target, serverHash)
	}
	pv := prover.New()
	pv.AddClosure(prover.NewKeyClosure(bobKey))
	for _, s := range steps {
		pv.AddProof(s)
	}
	pv.AddProof(ownerToAlice)
	pv.AddProof(aliceToBob)

	// Bob reads the page through the standard challenge flow; the
	// proof runs bob -> alice -> H(K_server).
	client := httpauth.NewClient(pv, bob)
	resp, err := client.Get(ts.URL + "/pub/doc.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != "named and shared" {
		t.Fatalf("body = %q", body)
	}
}

// TestRevocationPropagatesEndToEnd revokes the middle link of a chain
// and checks the server refuses subsequent requests (section 4.1).
func TestRevocationPropagatesEndToEnd(t *testing.T) {
	serverKey := sfkey.FromSeed([]byte("rev-server"))
	userKey := sfkey.FromSeed([]byte("rev-user"))
	serverHash := principal.HashOfKey(serverKey.Public())
	user := principal.KeyOf(userKey.Public())

	srv := webfs.New(serverHash, "files", fstest.MapFS{
		"pub/a": {Data: []byte("x")},
	})
	store := cert.NewRevocationStore()
	srv.Protected().Revocations = store
	ts := httptest.NewServer(srv)
	defer ts.Close()

	share, err := webfs.ShareSubtree(serverKey, serverHash, user, "files", "/pub/", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	pv := prover.New()
	pv.AddClosure(prover.NewKeyClosure(userKey))
	pv.AddProof(share)
	client := httpauth.NewClient(pv, user)

	resp, err := client.Get(ts.URL + "/pub/a")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// The owner revokes the delegation; new requests must fail even
	// though the certificate itself is unexpired. (The client gets a
	// 403 back when its freshly signed request is refused.)
	if _, errs := store.Add(cert.NewRevocationList(serverKey, core.Forever, share.Hash())); errs[0] != nil {
		t.Fatal(errs[0])
	}
	resp2, err := client.Get(ts.URL + "/pub/a")
	if err == nil {
		defer resp2.Body.Close()
		if resp2.StatusCode == 200 {
			t.Fatal("revoked delegation still authorized")
		}
	}
}
