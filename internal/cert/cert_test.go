package cert

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/principal"
	"repro/internal/sexp"
	"repro/internal/sfkey"
	"repro/internal/tag"
)

func keys(seed string) (*sfkey.PrivateKey, principal.Key) {
	priv := sfkey.FromSeed([]byte(seed))
	return priv, principal.KeyOf(priv.Public())
}

func TestSignAndVerify(t *testing.T) {
	alice, kAlice := keys("alice")
	_, kBob := keys("bob")
	c, err := Delegate(alice, kBob, kAlice, tag.MustParse(`(tag (fs read))`), core.Forever)
	if err != nil {
		t.Fatal(err)
	}
	ctx := core.NewVerifyContext()
	if err := c.Verify(ctx); err != nil {
		t.Fatal(err)
	}
	concl := c.Conclusion()
	if !principal.Equal(concl.Subject, kBob) || !principal.Equal(concl.Issuer, kAlice) {
		t.Fatalf("conclusion = %s", concl)
	}
	if len(c.Children()) != 0 {
		t.Fatal("cert should be a leaf")
	}
}

func TestCannotSignForOthers(t *testing.T) {
	alice, _ := keys("alice")
	_, kBob := keys("bob")
	_, kCarol := keys("carol")
	// Alice tries to issue a delegation of Bob's authority.
	if _, err := Delegate(alice, kCarol, kBob, tag.All(), core.Forever); err == nil {
		t.Fatal("foreign issuer signed")
	}
}

func TestIssuerRootedAtHashAndName(t *testing.T) {
	alice, _ := keys("alice")
	_, kBob := keys("bob")
	hAlice := principal.HashOfKey(alice.Public())
	// Issuer as hash of the signing key.
	if _, err := Delegate(alice, kBob, hAlice, tag.All(), core.Forever); err != nil {
		t.Fatalf("hash issuer rejected: %v", err)
	}
	// Issuer as a name rooted at the signing key.
	n := principal.NameOf(principal.KeyOf(alice.Public()), "mail")
	if _, err := Delegate(alice, kBob, n, tag.All(), core.Forever); err != nil {
		t.Fatalf("name issuer rejected: %v", err)
	}
	// Issuer as a name rooted at the hash of the signing key.
	nh := principal.NameOf(hAlice, "mail")
	if _, err := Delegate(alice, kBob, nh, tag.All(), core.Forever); err != nil {
		t.Fatalf("hash-name issuer rejected: %v", err)
	}
	// Issuer rooted elsewhere.
	other := principal.NameOf(kBob, "mail")
	if _, err := Delegate(alice, kBob, other, tag.All(), core.Forever); err == nil {
		t.Fatal("foreign name issuer signed")
	}
}

func TestTamperedCertFails(t *testing.T) {
	alice, kAlice := keys("alice")
	_, kBob := keys("bob")
	c, err := Delegate(alice, kBob, kAlice, tag.All(), core.Forever)
	if err != nil {
		t.Fatal(err)
	}
	ctx := core.NewVerifyContext()
	// Corrupt the signature.
	c.Signature[0] ^= 1
	if err := c.Verify(ctx); err == nil {
		t.Fatal("corrupted signature verified")
	}
	c.Signature[0] ^= 1
	// Swap the body.
	c.Body.Tag = tag.All()
	c.Body.Subject = principal.KeyOf(sfkey.FromSeed([]byte("eve")).Public())
	if err := c.Verify(core.NewVerifyContext()); err == nil {
		t.Fatal("altered body verified")
	}
}

func TestCertWireRoundTrip(t *testing.T) {
	alice, kAlice := keys("alice")
	_, kBob := keys("bob")
	v := core.Between(
		time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2027, 1, 1, 0, 0, 0, 0, time.UTC))
	c, err := Delegate(alice, kBob, kAlice, tag.MustParse(`(tag (db select))`), v)
	if err != nil {
		t.Fatal(err)
	}
	back, err := core.ProofFromSexp(c.Sexp())
	if err != nil {
		t.Fatal(err)
	}
	bc, ok := back.(*Cert)
	if !ok {
		t.Fatalf("decoded to %T", back)
	}
	if !bc.Equal(c) {
		t.Fatal("wire round trip changed certificate")
	}
	if err := bc.Verify(core.NewVerifyContext()); err != nil {
		t.Fatal(err)
	}
	// Transport encoding round trip.
	back2, err := core.ParseProof(c.Sexp().Transport())
	if err != nil {
		t.Fatal(err)
	}
	if back2.Conclusion().Key() != c.Conclusion().Key() {
		t.Fatal("transport round trip changed conclusion")
	}
}

// TestFigure1 reconstructs the paper's Figure 1: the structured proof
// that document D is the object client C associates with name N.
//
//	hash-identity:       HKC => KC
//	name-monotonicity:   HKC·N => KC·N
//	signed-certificate:  KS => HKC·N     (client binds its name to KS)
//	transitivity:        KS => KC·N
//	signed-certificate:  HD => KS        (server signs the document)
//	transitivity:        HD => KC·N
func TestFigure1(t *testing.T) {
	client, kc := keys("client-C")
	server, ks := keys("server-S")
	doc := []byte("the document D")
	hd := principal.HashOfBytes(doc)
	hkc := principal.HashOfKey(client.Public())

	// hash identity HKC => KC, lifted through the name N.
	hi := core.NewHashIdent(client.Public())
	nm, err := core.NewNameMono(hi, "N")
	if err != nil {
		t.Fatal(err)
	}

	// The client's signed binding: KS speaks for HKC·N. (The issuer
	// HKC·N is rooted at the client key through its hash.)
	bind, err := Sign(client, core.SpeaksFor{
		Subject: ks,
		Issuer:  principal.NameOf(hkc, "N"),
		Tag:     tag.All(),
	})
	if err != nil {
		t.Fatal(err)
	}

	// transitivity: KS => KC·N.
	ksToName, err := core.NewTransitivity(bind, nm)
	if err != nil {
		t.Fatal(err)
	}
	wantMid := principal.NameOf(kc, "N")
	if !principal.Equal(ksToName.Conclusion().Issuer, wantMid) {
		t.Fatalf("mid conclusion issuer = %s, want %s", ksToName.Conclusion().Issuer, wantMid)
	}

	// The server's short-lived signature over the document: HD => KS.
	short := core.Until(time.Now().Add(time.Hour))
	docCert, err := Sign(server, core.SpeaksFor{
		Subject: hd, Issuer: ks, Tag: tag.All(), Validity: short,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Top: HD => KC·N.
	top, err := core.NewTransitivity(docCert, ksToName)
	if err != nil {
		t.Fatal(err)
	}
	ctx := core.NewVerifyContext()
	if err := top.Verify(ctx); err != nil {
		t.Fatalf("Figure 1 proof failed: %v", err)
	}
	concl := top.Conclusion()
	if !principal.Equal(concl.Subject, hd) || !principal.Equal(concl.Issuer, wantMid) {
		t.Fatalf("Figure 1 conclusion = %s", concl)
	}

	// The whole structure survives the wire.
	back, err := core.ProofFromSexp(top.Sexp())
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Verify(core.NewVerifyContext()); err != nil {
		t.Fatal(err)
	}

	// Lemma extraction: when the short-lived HD => KS expires, the
	// still-useful subproof KS => KC·N is recoverable for reuse
	// (section 4.3).
	var found bool
	for _, l := range core.Lemmas(back) {
		if l.Conclusion().Key() == ksToName.Conclusion().Key() {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("reusable lemma KS => KC·N not extractable")
	}
}

func TestRevocationList(t *testing.T) {
	alice, kAlice := keys("alice")
	_, kBob := keys("bob")
	c, err := Delegate(alice, kBob, kAlice, tag.All(), core.Forever)
	if err != nil {
		t.Fatal(err)
	}
	store := NewRevocationStore()
	ctx := core.NewVerifyContext()
	store.Bind(ctx)
	if err := c.Verify(ctx); err != nil {
		t.Fatalf("unrevoked cert failed: %v", err)
	}

	// A stranger's validly signed CRL naming the hash voids nothing:
	// only the key that signed a certificate may revoke it.
	stranger, _ := keys("stranger")
	if _, errs := store.Add(NewRevocationList(stranger, core.Forever, c.Hash())); errs[0] != nil {
		t.Fatal(errs[0])
	}
	ctx2 := core.NewVerifyContext()
	store.Bind(ctx2)
	if err := c.Verify(ctx2); err != nil {
		t.Fatalf("a stranger's CRL revoked the cert: %v", err)
	}

	crl := NewRevocationList(alice, core.Forever, c.Hash())
	if _, errs := store.Add(crl); errs[0] != nil {
		t.Fatal(errs[0])
	}
	ctx3 := core.NewVerifyContext()
	store.Bind(ctx3)
	if err := c.Verify(ctx3); err == nil {
		t.Fatal("revoked cert verified")
	}
}

func TestExpiredCRLDoesNotRevoke(t *testing.T) {
	alice, kAlice := keys("alice")
	_, kBob := keys("bob")
	c, _ := Delegate(alice, kBob, kAlice, tag.All(), core.Forever)
	past := core.Until(time.Now().Add(-time.Hour))
	store := NewRevocationStore()
	if _, errs := store.Add(NewRevocationList(alice, past, c.Hash())); errs[0] != nil {
		t.Fatal(errs[0])
	}
	ctx := core.NewVerifyContext()
	store.Bind(ctx)
	if err := c.Verify(ctx); err != nil {
		t.Fatalf("stale CRL still revokes: %v", err)
	}
}

func TestCRLWireRoundTripAndTamper(t *testing.T) {
	alice, _ := keys("alice")
	crl := NewRevocationList(alice, core.Forever, sfkey.HashBytes([]byte("cert1")))
	back, err := RevocationListFromSexp(crl.Sexp())
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Verify(); err != nil {
		t.Fatal(err)
	}
	back.Hashes = append(back.Hashes, sfkey.HashBytes([]byte("cert2")))
	if err := back.Verify(); err == nil {
		t.Fatal("tampered CRL verified")
	}
	store := NewRevocationStore()
	if _, errs := store.Add(back); errs[0] == nil {
		t.Fatal("store accepted tampered CRL")
	}
}

// TestCRLHashFollowsContent: a copy of a list whose signature is then
// changed hashes as what it now holds, not as the list it was copied
// from, so a held list's hash cannot vouch for a forged copy.
func TestCRLHashFollowsContent(t *testing.T) {
	alice, _ := keys("alice")
	rl := NewRevocationList(alice, core.Forever, sfkey.HashBytes([]byte("cert1")))
	forged := *rl
	forged.Signature = append([]byte(nil), rl.Signature...)
	forged.Signature[0] ^= 1
	if forged.Hash() == rl.Hash() {
		t.Fatal("forged copy reports the original's hash")
	}
	if forged.Hash() != forged.Sexp().Hash() || rl.Hash() != rl.Sexp().Hash() {
		t.Fatal("Hash differs from the hash of the list's encoding")
	}
	store := NewRevocationStore()
	if _, errs := store.Add(rl); errs[0] != nil {
		t.Fatal(errs[0])
	}
	if store.Has(forged.Hash()) {
		t.Fatal("store reports the forged copy as held")
	}
	// Add skips a held list before any signature check, and refuses
	// the forged copy on its signature instead of taking it as held.
	before := sfkey.SigVerifies()
	if added, errs := store.Add(rl); added[0] || errs[0] != nil {
		t.Fatalf("re-adding the held list: added %v, err %v", added[0], errs[0])
	}
	if n := sfkey.SigVerifies() - before; n != 0 {
		t.Fatalf("re-adding the held list checked %d signatures, want 0", n)
	}
	if _, errs := store.Add(&forged); errs[0] == nil {
		t.Fatal("store took the forged copy")
	}
}

func TestRevalidation(t *testing.T) {
	alice, kAlice := keys("alice")
	_, kBob := keys("bob")
	c, err := SignWithRevalidation(alice, core.SpeaksFor{
		Subject: kBob, Issuer: kAlice, Tag: tag.All(),
	}, "revalidator.example")
	if err != nil {
		t.Fatal(err)
	}
	// No revalidator configured: must refuse.
	if err := c.Verify(core.NewVerifyContext()); err == nil {
		t.Fatal("revalidation demand ignored")
	}
	rv := NewRevalidator()
	ctx := core.NewVerifyContext()
	ctx.Revalidate = rv.Revalidate
	if err := c.Verify(ctx); err != nil {
		t.Fatalf("confirmed cert failed: %v", err)
	}
	rv.Suspend(c.Hash())
	ctx2 := core.NewVerifyContext()
	ctx2.Revalidate = rv.Revalidate
	if err := c.Verify(ctx2); err == nil {
		t.Fatal("suspended cert verified")
	}
	rv.Restore(c.Hash())
	ctx3 := core.NewVerifyContext()
	ctx3.Revalidate = rv.Revalidate
	if err := c.Verify(ctx3); err != nil {
		t.Fatalf("restored cert failed: %v", err)
	}
	// The revalidation demand is inside the signed body: stripping it
	// breaks the signature.
	c.RevalidateAt = ""
	if err := c.Verify(core.NewVerifyContext()); err == nil {
		t.Fatal("stripped revalidation demand verified")
	}
}

func TestCertInsideLargerProof(t *testing.T) {
	// Channel assumption + cert chain: the usual server-side check.
	alice, kAlice := keys("alice")
	bob, kBob := keys("bob")
	ch := principal.ChannelOf(principal.ChannelSecure, []byte("session-1"))

	grant := tag.MustParse(`(tag (web (method GET) (* prefix "/pub/")))`)
	aliceToBob, err := Delegate(alice, kBob, kAlice, grant, core.Forever)
	if err != nil {
		t.Fatal(err)
	}
	bobToCh, err := Delegate(bob, ch, kBob, tag.All(), core.Forever)
	if err != nil {
		t.Fatal(err)
	}
	chain, err := core.NewTransitivity(bobToCh, aliceToBob)
	if err != nil {
		t.Fatal(err)
	}
	ctx := core.NewVerifyContext()
	req := tag.MustParse(`(tag (web (method GET) "/pub/x"))`)
	if err := core.Authorize(ctx, chain, ch, kAlice, req); err != nil {
		t.Fatalf("authorization failed: %v", err)
	}
	bad := tag.MustParse(`(tag (web (method GET) "/private"))`)
	if err := core.Authorize(ctx, chain, ch, kAlice, bad); err == nil {
		t.Fatal("out-of-scope request authorized")
	}
}

// TestParseProofPooledNoEscape: the parser's pooled arena is recycled
// the moment sexp.ParseOne returns, so nothing in the proof ParseProof
// returns may alias arena scratch or the caller's input buffer.
// Clobber the input, churn the pool through further parses, and the
// proof must still verify and re-encode identically.
func TestParseProofPooledNoEscape(t *testing.T) {
	alice, kAlice := keys("pp-alice")
	bob, kBob := keys("pp-bob")
	_, kCarol := keys("pp-carol")
	aliceToBob, err := Delegate(alice, kBob, kAlice, tag.MustParse(`(tag (db select))`), core.Forever)
	if err != nil {
		t.Fatal(err)
	}
	bobToCarol, err := Delegate(bob, kCarol, kBob, tag.MustParse(`(tag (db select))`), core.Forever)
	if err != nil {
		t.Fatal(err)
	}
	chain, err := core.NewTransitivity(bobToCarol, aliceToBob)
	if err != nil {
		t.Fatal(err)
	}
	want := chain.Sexp().Canonical()

	buf := append([]byte(nil), chain.Sexp().Transport()...)
	p, err := core.ParseProof(buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = 0xAA
	}
	for i := 0; i < 64; i++ {
		if _, err := sexp.ParseOne([]byte(`(churn (deep (nested expressions to overwrite recycled scratch)))`)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Verify(core.NewVerifyContext()); err != nil {
		t.Fatalf("pooled-parsed proof no longer verifies: %v", err)
	}
	if !bytes.Equal(p.Sexp().Canonical(), want) {
		t.Fatal("pooled-parsed proof re-encodes differently")
	}
}
