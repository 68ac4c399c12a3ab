// Package cert implements signed certificates: the leaf proofs of the
// Snowflake logic. A certificate encodes a SpeaksFor statement and a
// digital signature by the key controlling the statement's issuer;
// verifying the signature justifies the logical assumption "K says
// (Subject speaks for Issuer regarding T)" (paper section 3).
//
// SPKI's revocation mechanisms — certificate revocation lists and
// one-time revalidations — are expressed as statements consulted
// during verification (section 4.1).
package cert

import (
	"bytes"
	"fmt"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/principal"
	"repro/internal/sexp"
	"repro/internal/sfkey"
	"repro/internal/tag"
)

// RuleSignedCert is the wire name of the certificate proof leaf
// ("signed-certificate" in the paper's Figure 1).
const RuleSignedCert = "signed-certificate"

func init() {
	core.RegisterLeafDecoder(RuleSignedCert, decodeCert)
}

// Cert is a signed delegation. It implements core.Proof, so a bare
// certificate is already a one-step proof.
type Cert struct {
	// Body is the delegation statement.
	Body core.SpeaksFor
	// Signer is the public key whose signature backs the statement.
	// The body's issuer must be rooted at this key (the key itself,
	// its hash, or a name based on either).
	Signer sfkey.PublicKey
	// RevalidateAt optionally names a one-time revalidation service
	// the verifier must consult (SPKI revalidation).
	RevalidateAt string
	// Signature signs the canonical signing body.
	Signature []byte

	// memo caches the derived forms of a decoded certificate: its
	// signing bytes, body hash, and canonical wire span. It is set only
	// by decodeCert — a certificate that came off the wire is immutable
	// — so the mutable-struct idiom (build a Cert literal, or Sign one,
	// and adjust fields before use) keeps working for locally built
	// certificates, which always derive on demand.
	memo *certMemo
}

// certMemo is what decodeCert derives once from the received bytes.
// Signing bytes, hash and wire span are fixed by those bytes, so they
// hold for the object's lifetime.
//
// sigOK additionally records that signature verified under signer over
// signing: a fact about a key, a message and a signature that no CRL or
// epoch bump can change, so a re-check (after a bump discarded every
// cached verdict) skips only the Ed25519 call — issuer rooting,
// revocation and revalidation still run each time. signer and sig are
// private copies of the decoded Signer.Raw and Signature, and the flag
// is set and trusted only while the exported fields still equal them:
// a flipped byte, a swapped signer, or a struct copy (which shares the
// memo) given a new signature is verified from scratch, and never
// flagged.
type certMemo struct {
	signing []byte
	hash    []byte
	wire    sexp.Sexp
	signer  []byte
	sig     []byte
	sigOK   atomic.Bool
}

// Sign issues a certificate for body with the given private key. The
// body's issuer must be rooted at the signing key: a key cannot give
// away another principal's authority.
func Sign(priv *sfkey.PrivateKey, body core.SpeaksFor) (*Cert, error) {
	return SignWithRevalidation(priv, body, "")
}

// SignWithRevalidation issues a certificate that demands one-time
// revalidation at the named service before each first use.
func SignWithRevalidation(priv *sfkey.PrivateKey, body core.SpeaksFor, revalidateAt string) (*Cert, error) {
	pub := priv.Public()
	if !issuerRootedAt(body.Issuer, pub) {
		return nil, fmt.Errorf("cert: issuer %s is not rooted at signing key %s",
			body.Issuer, pub.Fingerprint())
	}
	c := &Cert{Body: body, Signer: pub, RevalidateAt: revalidateAt}
	c.Signature = priv.Sign(c.signingBytes())
	return c, nil
}

// issuerRootedAt reports whether the statement's issuer is controlled
// by the signing key: the key itself, its hash, or a name rooted at
// either.
func issuerRootedAt(iss principal.Principal, pub sfkey.PublicKey) bool {
	switch p := iss.(type) {
	case principal.Key:
		return p.Pub.Equal(pub)
	case principal.Hash:
		return principal.HashMatchesKey(p, pub)
	case principal.Name:
		return issuerRootedAt(p.Base, pub)
	default:
		return false
	}
}

// signingBytes returns the canonical octets covered by the signature:
// the body statement plus the revalidation demand, so neither can be
// altered or stripped.
func (c *Cert) signingBytes() []byte {
	if c.memo != nil {
		return c.memo.signing
	}
	kids := []sexp.Sexp{sexp.String("cert-body"), c.Body.Sexp()}
	if c.RevalidateAt != "" {
		kids = append(kids, sexp.List(sexp.String("revalidate"), sexp.String(c.RevalidateAt)))
	}
	return sexp.List(kids...).Canonical()
}

// Hash identifies the certificate for revocation purposes: the hash
// of its signed body.
func (c *Cert) Hash() []byte {
	if c.memo != nil {
		return c.memo.hash
	}
	return sfkey.HashBytes(c.signingBytes())
}

// Conclusion implements core.Proof.
func (c *Cert) Conclusion() core.SpeaksFor { return c.Body }

// Children implements core.Proof; a certificate is a leaf.
func (c *Cert) Children() []core.Proof { return nil }

// Verify implements core.Proof: it checks the signature, the issuer
// rooting, the revocation state, and any revalidation demand.
// Expiration is not checked here — validity is part of the statement,
// and request matching (core.Authorize) enforces it.
//
// Verification runs through the context's proof cache: a certificate
// already verified under the current revocation epoch costs a lookup,
// not a signature check. Certificates demanding one-time revalidation
// are context-dependent (the revalidator is consulted per verifier)
// and never enter the shared cache.
func (c *Cert) Verify(ctx *core.VerifyContext) error {
	return ctx.VerifyCached(c, func() error { return c.check(ctx, nil) })
}

// check is the uncached verification body. sigOK, when non-nil,
// carries the verdict of a batched signature check (VerifyBatch) that
// already covered this certificate; nil means check the signature
// here, unless the decoded certificate's signature is known good
// (certMemo). Everything else — issuer rooting, revocation,
// revalidation — is evaluated at call time either way, so a batched or
// re-checked certificate obeys exactly the revocation state a freshly
// verified one would.
func (c *Cert) check(ctx *core.VerifyContext, sigOK *bool) error {
	if !issuerRootedAt(c.Body.Issuer, c.Signer) {
		return fmt.Errorf("cert: issuer %s not rooted at signer %s", c.Body.Issuer, c.Signer.Fingerprint())
	}
	if !c.sigKnownGood() {
		if sigOK != nil && !*sigOK || sigOK == nil && !c.Signer.Verify(c.signingBytes(), c.Signature) {
			return fmt.Errorf("cert: bad signature by %s", c.Signer.Fingerprint())
		}
		if c.asDecoded() {
			c.memo.sigOK.Store(true)
		}
	}
	if ctx.Revoked != nil && ctx.Revoked(c.Hash(), c.Signer) {
		return fmt.Errorf("cert: certificate revoked")
	}
	if c.RevalidateAt != "" {
		if ctx.Revalidate == nil {
			return fmt.Errorf("cert: certificate demands revalidation at %q but verifier has no revalidator", c.RevalidateAt)
		}
		if err := ctx.Revalidate(c.Hash(), c.RevalidateAt); err != nil {
			return fmt.Errorf("cert: revalidation failed: %w", err)
		}
	}
	return nil
}

// asDecoded reports whether c is a decoded certificate still carrying
// the signer and signature it was decoded with (certMemo's guard).
func (c *Cert) asDecoded() bool {
	return c.memo != nil && bytes.Equal(c.Signature, c.memo.sig) && bytes.Equal(c.Signer.Raw, c.memo.signer)
}

// sigKnownGood reports whether c's signature has already verified, so
// a re-check may skip the public-key operation.
func (c *Cert) sigKnownGood() bool {
	return c.memo != nil && c.memo.sigOK.Load() && c.asDecoded()
}

// ContextDependent reports whether this certificate's verdict depends
// on verifier-local state: one-time revalidation must be performed by
// each verifier, so such certificates stay out of shared proof
// caches. Plain revoked-or-not state is epoch-tracked and shareable.
func (c *Cert) ContextDependent() bool { return c.RevalidateAt != "" }

// Sexp implements core.Proof. For a decoded certificate it returns
// the memoized canonical wire span (re-encoding is a copy, not a tree
// walk).
func (c *Cert) Sexp() sexp.Sexp {
	if c.memo != nil {
		return c.memo.wire
	}
	kids := []sexp.Sexp{
		sexp.String("proof"),
		sexp.String(RuleSignedCert),
		c.Body.Sexp(),
		sexp.List(sexp.String("signer"), c.Signer.Sexp()),
		sexp.List(sexp.String("signature"), sexp.Atom(c.Signature)),
	}
	if c.RevalidateAt != "" {
		kids = append(kids, sexp.List(sexp.String("revalidate"), sexp.String(c.RevalidateAt)))
	}
	return sexp.List(kids...)
}

func decodeCert(e sexp.Sexp) (core.Proof, error) {
	if e.Len() < 5 {
		return nil, fmt.Errorf("cert: malformed signed-certificate proof")
	}
	body, err := core.SpeaksForFromSexp(e.Nth(2))
	if err != nil {
		return nil, fmt.Errorf("cert: body: %w", err)
	}
	signerE := e.Child("signer")
	sigE := e.Child("signature")
	if signerE == nil || signerE.Len() != 2 || sigE == nil || sigE.Len() != 2 || !sigE.Nth(1).IsAtom() {
		return nil, fmt.Errorf("cert: missing signer or signature")
	}
	pub, err := sfkey.PublicFromSexp(signerE.Nth(1))
	if err != nil {
		return nil, fmt.Errorf("cert: signer: %w", err)
	}
	c := &Cert{
		Body:      body,
		Signer:    pub,
		Signature: append([]byte(nil), sigE.Nth(1).Bytes()...),
	}
	if rv := e.Child("revalidate"); rv != nil {
		if rv.Len() != 2 || !rv.Nth(1).IsAtom() {
			return nil, fmt.Errorf("cert: malformed revalidate clause")
		}
		c.RevalidateAt = rv.Nth(1).Text()
	}
	// The signing bytes are derived from the received spans rather than
	// by rebuilding the body tree: the signature then covers exactly
	// what was sent, and the memo costs a few span copies.
	kids := []sexp.Sexp{sexp.String("cert-body"), sexp.Raw(e.Nth(2).Canonical())}
	if c.RevalidateAt != "" {
		kids = append(kids, sexp.Raw(e.Child("revalidate").Canonical()))
	}
	signing := sexp.List(kids...).Canonical()
	c.memo = &certMemo{
		signing: signing,
		hash:    sfkey.HashBytes(signing),
		wire:    sexp.Raw(e.Canonical()),
		signer:  append([]byte(nil), pub.Raw...),
		sig:     append([]byte(nil), c.Signature...),
	}
	return c, nil
}

// Delegate is the everyday convenience used across the system: priv's
// key delegates to subject the authority to speak for issuer (usually
// priv's own key principal) regarding t within v.
func Delegate(priv *sfkey.PrivateKey, subject, issuer principal.Principal, t tag.Tag, v core.Validity) (*Cert, error) {
	return Sign(priv, core.SpeaksFor{Subject: subject, Issuer: issuer, Tag: t, Validity: v})
}

// Equal reports whether two certificates are byte-identical.
func (c *Cert) Equal(o *Cert) bool {
	return o != nil && bytes.Equal(c.signingBytes(), o.signingBytes()) &&
		bytes.Equal(c.Signature, o.Signature)
}
