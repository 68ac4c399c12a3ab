package core

import (
	"fmt"
	"time"

	"repro/internal/sexp"
	"repro/internal/sfkey"
)

// Proof is a structured proof of a SpeaksFor conclusion, a tree of
// axioms (leaves) and rule applications (interior nodes). Following
// section 4.3, every component maps one-to-one to an implementation
// object that verifies itself; proofs clearly exhibit their own
// meaning, and lemmas (subproofs) are extractable for reuse.
//
// Proof objects may be received from untrusted parties; their Verify
// methods are local code, so verification results are trustworthy.
type Proof interface {
	// Conclusion returns the statement this proof establishes.
	Conclusion() SpeaksFor
	// Verify checks the proof bottom-up in the given context. A nil
	// error means the conclusion holds for a reader who accepts the
	// context's assumptions.
	Verify(ctx *VerifyContext) error
	// Children returns immediate subproofs (lemma extraction).
	Children() []Proof
	// Sexp returns the wire form.
	Sexp() sexp.Sexp
}

// VerifyContext carries the verifier's environment: the clock, the
// local assumptions it has itself witnessed (channel bindings), the
// revocation state, and the verified-proof cache that makes repeated
// verification of a cached proof cheap (sections 4.3 and 5.1.1).
type VerifyContext struct {
	// Now is the verification time; the zero value means time.Now().
	Now time.Time

	// Assumptions holds statement Keys the verifier itself witnessed,
	// such as channel bindings established by its own runtime. An
	// Assumption leaf verifies only when its statement is present
	// here; assumptions never transfer between parties.
	Assumptions map[string]bool

	// Revoked, when non-nil, reports whether the certificate with the
	// given body hash, signed by signer, has been revoked (CRL-style,
	// section 4.1). cert.RevocationStore.Bind installs the one rule:
	// only a fresh CRL signed by signer itself voids the certificate.
	Revoked func(certHash []byte, signer sfkey.PublicKey) bool

	// Revalidate, when non-nil, performs SPKI one-time revalidation
	// for certificates that demand it: it must return nil only if the
	// issuer currently confirms the certificate.
	Revalidate func(certHash []byte, where string) error

	// Cache, when non-nil, is a shared verified-proof cache consulted
	// before (and populated after) signature-level verification of
	// portable subproofs. Pair it with a revocation source that bumps
	// the cache's epoch (cert.RevocationStore does this for the shared
	// cache automatically).
	Cache *ProofCache

	// RevocationView identifies the revocation state behind Revoked
	// (cert.RevocationStore.View supplies it; zero means unidentified).
	// Cached verdicts are shared only between verifiers with the same
	// view: a verdict recorded by a verifier that checks no CRLs (or
	// someone else's CRLs) must not let this verifier skip its own
	// revocation check. When Revoked is set but RevocationView is
	// zero — an ad-hoc callback with no epoch/view discipline — the
	// shared cache is bypassed entirely, which is slow but safe.
	RevocationView uint64

	// cache memoizes verified subproofs by canonical hash.
	cache map[[32]byte]error
}

// NewVerifyContext returns a context with an empty assumption set.
func NewVerifyContext() *VerifyContext {
	return &VerifyContext{Assumptions: make(map[string]bool)}
}

// At returns the verification time.
func (ctx *VerifyContext) At() time.Time {
	if ctx.Now.IsZero() {
		//sfvet:ignore clockcheck this zero-value fallback is the VerifyContext.Now injection seam itself
		return time.Now()
	}
	return ctx.Now
}

// Assume registers a locally witnessed statement.
func (ctx *VerifyContext) Assume(s SpeaksFor) {
	if ctx.Assumptions == nil {
		ctx.Assumptions = make(map[string]bool)
	}
	ctx.Assumptions[s.Key()] = true
}

// Holds reports whether the context carries the assumption.
func (ctx *VerifyContext) Holds(s SpeaksFor) bool {
	return ctx.Assumptions[s.Key()]
}

// verifyMemo wraps a node's verification with the per-context memo
// and, for portable subproofs, the shared verified-proof cache: a
// cached positive verdict short-circuits the whole subtree's
// signature checks (the fast path), and a fresh positive verdict on a
// portable subtree is published for later verifiers holding the same
// revocation view.
func (ctx *VerifyContext) verifyMemo(p Proof, f func() error) error {
	if ctx.cache == nil {
		ctx.cache = make(map[[32]byte]error)
	}
	h := p.Sexp().Hash()
	if err, ok := ctx.cache[h]; ok {
		return err
	}
	// An enforcing verifier with an unidentified revocation view gets
	// no shared cache: its verdicts cannot be labeled, and verdicts
	// labeled by others might skip its revocation check.
	enforcing := ctx.Revoked != nil
	shared := ctx.Cache
	if enforcing && ctx.RevocationView == 0 {
		shared = nil
	}
	if shared != nil {
		lookupView := ctx.RevocationView
		if !enforcing {
			lookupView = ViewAny
		}
		if shared.Lookup(h, ctx.At(), lookupView) {
			ctx.cache[h] = nil
			return nil
		}
	}
	// The epoch is captured before verification runs: a CRL installed
	// mid-verification bumps it, and Store then discards the verdict
	// instead of caching it against the new revocation state.
	var epoch uint64
	if shared != nil {
		epoch = shared.Epoch()
	}
	err := f()
	ctx.cache[h] = err
	if err == nil && shared != nil && Portable(p) && p.Conclusion().Validity.Contains(ctx.At()) {
		storeView := uint64(0)
		if enforcing {
			storeView = ctx.RevocationView
		}
		shared.Store(h, p.Conclusion().Validity, epoch, storeView)
	}
	return err
}

// VerifyCached exposes verifyMemo for proof leaves defined outside
// core (package cert's signed certificates); their Verify methods
// call it so leaf signature checks enjoy the same memoization and
// shared caching as the rule nodes.
func (ctx *VerifyContext) VerifyCached(p Proof, f func() error) error {
	return ctx.verifyMemo(p, f)
}

// PeekVerified reports whether p already holds a positive verdict in
// this context's memo or the shared cache, without verifying anything
// and without disturbing the cache's hit/miss counters. Batch
// verifiers (cert.VerifyBatch) consult it to decide which signatures
// still need checking; a false answer is always safe — the proof is
// simply verified normally.
func (ctx *VerifyContext) PeekVerified(p Proof) bool {
	h := p.Sexp().Hash()
	if err, ok := ctx.cache[h]; ok {
		return err == nil
	}
	enforcing := ctx.Revoked != nil
	shared := ctx.Cache
	if enforcing && ctx.RevocationView == 0 {
		shared = nil
	}
	if shared == nil {
		return false
	}
	view := ctx.RevocationView
	if !enforcing {
		view = ViewAny
	}
	return shared.peek(h, ctx.At(), view)
}

// CacheSize returns the number of memoized subproofs; exposed for the
// ablation benchmarks.
func (ctx *VerifyContext) CacheSize() int { return len(ctx.cache) }

// --- wire encoding ----------------------------------------------------

// leafDecoder decodes externally defined proof leaves (signed
// certificates live in package cert, which registers itself here to
// keep the dependency arrow pointing at core).
type leafDecoder func(e sexp.Sexp) (Proof, error)

var leafDecoders = map[string]leafDecoder{}

// RegisterLeafDecoder installs a decoder for (proof <kind> ...) forms
// defined outside core. Call from an init function.
func RegisterLeafDecoder(kind string, fn func(e sexp.Sexp) (Proof, error)) {
	leafDecoders[kind] = fn
}

// WireMemo caches the canonical wire span of a decoded proof node.
// Rule types embed it; ProofFromSexp seeds it after a successful
// decode, so re-encoding (and the per-node hashing verifyMemo does) is
// a span copy instead of a tree rebuild. Decoded proofs are immutable;
// locally built ones leave the memo empty and derive on demand.
type WireMemo struct {
	wire sexp.Sexp
}

// SetWire installs the memoized wire form.
func (w *WireMemo) SetWire(e sexp.Sexp) { w.wire = e }

// wireOr returns the memoized wire form, or builds one.
func (w *WireMemo) wireOr(build func() sexp.Sexp) sexp.Sexp {
	if w.wire != nil {
		return w.wire
	}
	return build()
}

// wireSetter is what ProofFromSexp feeds; *Cert manages its own memo
// (it also caches signing bytes and the body hash) and does not
// implement it.
type wireSetter interface{ SetWire(sexp.Sexp) }

// ProofFromSexp decodes any proof tree from its wire form.
func ProofFromSexp(e sexp.Sexp) (Proof, error) {
	if e == nil || e.Tag() != "proof" || e.Len() < 2 {
		return nil, fmt.Errorf("core: not a proof expression")
	}
	kind := e.Nth(1).Text()
	dec, ok := leafDecoders[kind]
	if !ok {
		if dec, ok = ruleDecoders[kind]; !ok {
			return nil, fmt.Errorf("core: unknown proof rule %q", kind)
		}
	}
	p, err := dec(e)
	if err != nil {
		return nil, err
	}
	if ws, ok := p.(wireSetter); ok {
		ws.SetWire(sexp.Raw(e.Canonical()))
	}
	return p, nil
}

// ParseProof decodes a proof from text (canonical, advanced, or
// transport encoding). The parse result owns its storage, so nothing
// of b is retained by the returned proof.
func ParseProof(b []byte) (Proof, error) {
	e, err := sexp.ParseOne(b)
	if err != nil {
		return nil, err
	}
	return ProofFromSexp(e)
}

var ruleDecoders = map[string]leafDecoder{}

func registerRule(kind string, fn leafDecoder) {
	ruleDecoders[kind] = fn
}

// proofHeader builds (proof <kind> kids...).
func proofHeader(kind string, kids ...sexp.Sexp) sexp.Sexp {
	all := append([]sexp.Sexp{sexp.String("proof"), sexp.String(kind)}, kids...)
	return sexp.List(all...)
}

// childProofs decodes the trailing children of a rule node starting
// at index start.
func childProofs(e sexp.Sexp, start int) ([]Proof, error) {
	var out []Proof
	for i := start; i < e.Len(); i++ {
		p, err := ProofFromSexp(e.Nth(i))
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}
