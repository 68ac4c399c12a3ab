// Package admit is the one admission pipeline: the paper's checkAuth
// prologue (Figure 4), restated for HTTP as ProtectedServlet (section
// 5.3.4) and reused by the quoting gateway (section 6.3), written
// once. httpauth.Protected, httpauth.CtlGuard, rmi.Server and
// gateway.Gateway embed a Pipeline and are transport adapters over
// it: they extract (speaker, issuer, tag, raw proof bytes) from their
// wire format, call the pipeline, and translate the verdict into a
// 401/403, a need-authorization reply, or a forward.
//
// Every decision runs the same sequence, and these are its
// invariants:
//
//  1. Begin captures the revocation epoch BEFORE any verification, so
//     the audit record names the epoch the decision started under; a
//     CRL landing mid-request never retroactively claims the verdict.
//  2. Proof bytes are parsed once (core.ParseProof); the parsed proof
//     owns its storage.
//  3. The chain's signatures are verified OUTSIDE the pipeline mutex,
//     against a throwaway context; portable verdicts land in the proof
//     cache.
//  4. core.Authorize runs UNDER the mutex against a persistent context
//     that is discarded whenever the cache's revocation epoch advances
//     (and whenever per-request residue outgrows memoMax), so the
//     locked walk is cache lookups and no verdict survives a CRL.
//  5. Only proofs whose subject can present them again are filed
//     (Submit); a proof presented for one request is not retained.
//  6. One obs.Decision per Attempt, stamped with layer, start epoch
//     and revocation view.
package admit

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/principal"
	"repro/internal/tag"
)

// Pipeline owns the admission sequence for one enforcement point.
// Construct with New; set the exported fields before serving. Safe for
// concurrent use.
type Pipeline struct {
	// Cache is the verified-proof cache; nil means the process-wide
	// shared cache. A private cache must be attached to Revocations
	// (cert.RevocationStore.AttachCache) so CRLs bump its epoch.
	Cache *core.ProofCache
	// Clock supplies verification time; nil means time.Now.
	Clock func() time.Time
	// Revocations, when set, binds every verification to this store's
	// CRLs and revocation view: installing a CRL bumps the cache epoch,
	// which discards the persistent context, and re-verification hits
	// the revoked check — no ForgetProofs needed.
	Revocations *cert.RevocationStore
	// Audit, when set, receives one Decision per Attempt.
	Audit *obs.AuditLog

	layer string

	mu     sync.Mutex
	vctx   core.EpochContext  // persistent memo, discarded on epoch bumps
	proofs map[string][]filed // verified proofs on file, by subject key
}

// filed is a proof on file with its audit citation, the hashes of its
// leaf lemmas (core.LeafHashes), computed once when the proof is filed
// rather than on every request it admits.
type filed struct {
	proof core.Proof
	cite  []string
}

// New returns a pipeline whose audit records carry the given layer
// name (gateway | httpauth | ctlguard | rmi).
func New(layer string) *Pipeline {
	return &Pipeline{layer: layer, proofs: make(map[string][]filed)}
}

// memoMax bounds the persistent context's memo. Every presented proof
// memoizes request-unique leaves (a request hash, a MAC link), so
// between CRLs the memo only grows; delegation chains are a handful of
// nodes, so thousands of entries are residue, not working set. The
// chain verdicts live on in the proof cache, so a reset costs lookups,
// not re-verification.
const memoMax = 4096

func (p *Pipeline) cache() *core.ProofCache {
	if p.Cache != nil {
		return p.Cache
	}
	return core.SharedProofCache()
}

// Now reads the pipeline's clock.
func (p *Pipeline) Now() time.Time {
	if p.Clock != nil {
		return p.Clock()
	}
	return time.Now()
}

// stamp points a verification context at the pipeline's cache, clock
// and revocation store. Bind's checker reads the context's own clock
// at call time, so a context is bound once, when it is new.
func (p *Pipeline) stamp(ctx *core.VerifyContext) *core.VerifyContext {
	ctx.Cache = p.cache()
	ctx.Now = p.Now()
	if p.Revocations != nil && ctx.Revoked == nil {
		p.Revocations.Bind(ctx)
	}
	return ctx
}

// parse decodes a transport-encoded proof into an owned core.Proof.
func parse(raw []byte) (core.Proof, error) {
	proof, err := core.ParseProof(raw)
	if err != nil {
		return nil, fmt.Errorf("bad proof: %w", err)
	}
	return proof, nil
}

// scratch builds the throwaway context chains are verified against
// outside the lock. Portable verdicts land in the proof cache, where a
// locked authorization walk finds them; the context holds no local
// assumptions, so only a proof that stands on its own passes.
func (p *Pipeline) scratch() *core.VerifyContext {
	return p.stamp(core.NewVerifyContext())
}

// Verify parses a proof and verifies its chain, certificate signatures
// batched, with no lock held. The gateway admits on this alone: it
// learns the issuer from the proof and leaves the access-control
// decision to the database behind it.
func (p *Pipeline) Verify(raw []byte) (core.Proof, error) {
	proof, err := parse(raw)
	if err != nil {
		return nil, err
	}
	if err := cert.VerifyChain(p.scratch(), proof); err != nil {
		return nil, err
	}
	return proof, nil
}

// Authorize decides whether the presented proof shows that speaker
// speaks for issuer regarding request. The proof is not filed: its
// subject is this one request.
func (p *Pipeline) Authorize(raw []byte, speaker, issuer principal.Principal, request tag.Tag) (core.Proof, error) {
	proof, err := parse(raw)
	if err != nil {
		return nil, err
	}
	// Prepay the signature checks outside the lock; the locked
	// core.Authorize owns the verdict and finds them cached.
	_ = cert.VerifyChain(p.scratch(), proof)
	return proof, p.AuthorizeProof(proof, speaker, issuer, request)
}

// AuthorizeProof is the locked step alone, for a chain the adapter
// composed itself: witnessed statements are registered as local
// assumptions (the MAC path's "this request speaks for the MAC
// principal", established by its HMAC check) before core.Authorize
// runs against the persistent context.
func (p *Pipeline) AuthorizeProof(proof core.Proof, speaker, issuer principal.Principal, request tag.Tag, witnessed ...core.SpeaksFor) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	ctx := p.stamp(p.vctx.Refresh(p.cache()))
	for _, w := range witnessed {
		ctx.Assume(w)
	}
	err := core.Authorize(ctx, proof, speaker, issuer, request)
	if ctx.CacheSize() > memoMax {
		p.vctx.Reset()
	}
	return err
}

// AuthorizeOnFile is the checkAuth prologue of Figure 4: find a filed,
// already verified proof that speaker speaks for issuer regarding
// request, under one lock acquisition, and return its citation for
// Attempt.CiteFiled (shared: do not modify it); ok is false when none
// does. Conclusions carry their own expiry and the persistent context
// memoizes the chain, so the warm cost is a map lookup plus tag
// matching. It memoizes nothing that is not on file, so the memo bound
// does not apply here.
func (p *Pipeline) AuthorizeOnFile(speaker, issuer principal.Principal, request tag.Tag) (cite []string, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	ctx := p.stamp(p.vctx.Refresh(p.cache()))
	for _, f := range p.proofs[speaker.Key()] {
		if core.Authorize(ctx, f.proof, speaker, issuer, request) == nil {
			return f.cite, true
		}
	}
	return nil, false
}

// Submit is the proofRecipient of Figure 4: verify once, outside the
// lock, and file the proof, with its citation, under its conclusion's
// subject for AuthorizeOnFile and Filed to find.
func (p *Pipeline) Submit(raw []byte) error {
	proof, err := p.Verify(raw)
	if err != nil {
		return err
	}
	f := filed{proof: proof, cite: core.LeafHashes(proof)}
	subj := proof.Conclusion().Subject.Key()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.proofs[subj] = append(p.proofs[subj], f)
	return nil
}

// Filed returns the proofs on file for subject, in filing order.
func (p *Pipeline) Filed(subject principal.Principal) []core.Proof {
	p.mu.Lock()
	defer p.mu.Unlock()
	fs := p.proofs[subject.Key()]
	out := make([]core.Proof, len(fs))
	for i, f := range fs {
		out[i] = f.proof
	}
	return out
}

// ForgetProofs drops the proofs on file, their citations and the
// persistent context; the measurement harness uses it to isolate the
// proof parse+verify cost ("we make the server forget its copy after
// each use", section 7.2).
func (p *Pipeline) ForgetProofs() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.proofs = make(map[string][]filed)
	p.vctx.Reset()
}

// Attempt is one decision in flight. The adapter opens it before it
// verifies anything, names the requester as it learns it, and closes
// it with exactly one of Challenge, Deny or Admit, which appends the
// audit record.
type Attempt struct {
	p     *Pipeline
	start time.Time
	who   principal.Principal
	what  tag.Tag
	d     obs.Decision
}

// Begin opens a decision on op, continuing the given trace. It
// captures the revocation epoch in force now, before any verification:
// that epoch, not the one current when the verdict lands, is what the
// audit record carries.
func (p *Pipeline) Begin(op, trace string) Attempt {
	a := Attempt{p: p, start: time.Now()}
	a.d.Layer, a.d.Op, a.d.Trace = p.layer, op, trace
	a.d.Epoch = p.cache().Epoch()
	if p.Revocations != nil {
		a.d.View = p.Revocations.View()
	}
	return a
}

// For names the requesting principal and the tag it needs; adapters
// call it again when they learn a better name (the gateway, once the
// signed request identifies the client).
func (a *Attempt) For(who principal.Principal, what tag.Tag) { a.who, a.what = who, what }

// Cite records p's leaf hashes — the signed certificates and requests
// the decision rests on — in the audit record.
func (a *Attempt) Cite(p core.Proof) {
	if a.p.Audit != nil {
		a.d.CertHashes = append(a.d.CertHashes, core.LeafHashes(p)...)
	}
}

// CiteFiled records the citation AuthorizeOnFile handed back, hashed
// when its proof was filed.
func (a *Attempt) CiteFiled(c []string) {
	if a.p.Audit != nil {
		a.d.CertHashes = append(a.d.CertHashes, c...)
	}
}

// Challenge closes the attempt: the requester must come back with a
// proof.
func (a *Attempt) Challenge(reason string) { a.close(obs.VerdictChallenge, reason) }

// Deny closes the attempt with a refusal.
func (a *Attempt) Deny(err error) { a.close(obs.VerdictDeny, err.Error()) }

// Admit closes the attempt with an admit; cacheHit marks one that rode
// state already on file.
func (a *Attempt) Admit(cacheHit bool) {
	a.d.CacheHit = cacheHit
	a.close(obs.VerdictAdmit, "")
}

func (a *Attempt) close(verdict, reason string) {
	if a.p.Audit == nil {
		return
	}
	a.d.Verdict, a.d.Reason = verdict, reason
	if a.who != nil {
		a.d.Principal, a.d.Tag = a.who.String(), a.what.String()
	}
	a.d.Duration = time.Since(a.start).Microseconds()
	a.p.Audit.Append(a.d)
}
