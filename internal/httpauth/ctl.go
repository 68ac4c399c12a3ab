// Control-plane authorization: the management surface of every daemon
// (admin endpoints, directory publish/remove, anti-entropy repairs) is
// guarded by the same speaks-for machinery that guards the data
// plane. A mutating request must carry an Authorization header in the
// SnowflakeProof scheme whose proof shows that the REQUEST HASH
// speaks for the daemon's operator principal regarding the
// operation's control tag (cert.CtlTag) — the identical shape the
// data-plane HTTP protocol uses (request.go), so there is no second
// credential system: operator credentials are ordinary delegation
// certificates, discovered, cached, and revoked through the ordinary
// pipeline. Verification rides the shared core.ProofCache fast path,
// and binding the guard to a cert.RevocationStore makes revoking an
// operator credential lock the holder out on the next request.
package httpauth

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admit"
	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/principal"
	"repro/internal/prover"
	"repro/internal/tag"
)

// CtlGuard authorizes mutating control-plane requests against an
// operator principal. It is the control-plane adapter over the
// admission pipeline: the embedded Pipeline carries the cache, clock,
// revocation store and audit log, so installing a CRL that names an
// operator credential locks its holder out on the very next request.
// Safe for concurrent use.
type CtlGuard struct {
	*admit.Pipeline
	// Operator is the principal the caller must prove its request
	// speaks for.
	Operator principal.Principal

	mu    sync.Mutex
	stats CtlStats
}

// CtlStats counts guard decisions.
type CtlStats struct {
	Authorized int64
	Denied     int64
}

// NewCtlGuard builds a guard for the operator, bound to rs (which may
// be nil for a guard that enforces no revocation state — not
// recommended outside tests).
func NewCtlGuard(operator principal.Principal, rs *cert.RevocationStore) *CtlGuard {
	g := &CtlGuard{Pipeline: admit.New("ctlguard"), Operator: operator}
	g.Revocations = rs
	return g
}

// Stats returns a copy of the counters.
func (g *CtlGuard) Stats() CtlStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.stats
}

// Authorize decides one request: body is the already-read request
// body (the request principal covers it), ctl the operation's control
// tag. A nil error means the caller proved the request speaks for the
// operator regarding ctl. The error for a missing header is
// ErrCtlNoProof so servers can answer 401-with-challenge rather than
// 403.
func (g *CtlGuard) Authorize(r *http.Request, body []byte, ctl tag.Tag) error {
	trace, _, _ := obs.ParseHeader(r.Header.Get(obs.TraceHeader))
	attempt := g.Begin(r.URL.Path, trace)
	reqPrin := ServerRequestPrincipal(r, body)
	attempt.For(reqPrin, ctl)

	proof, err := g.decide(r.Header.Get("Authorization"), reqPrin, ctl)
	g.mu.Lock()
	if err != nil {
		g.stats.Denied++
	} else {
		g.stats.Authorized++
	}
	g.mu.Unlock()
	switch {
	case err == ErrCtlNoProof:
		attempt.Challenge("no authorization header")
	case err != nil:
		attempt.Deny(err)
	default:
		attempt.Cite(proof)
		attempt.Admit(false)
	}
	return err
}

// decide extracts the proof from the Authorization header and asks the
// pipeline whether it shows the request speaks for the operator.
func (g *CtlGuard) decide(auth string, reqPrin principal.Hash, ctl tag.Tag) (core.Proof, error) {
	if auth == "" {
		return nil, ErrCtlNoProof
	}
	scheme, params := parseAuthHeader(auth)
	if scheme != SchemeProof {
		return nil, fmt.Errorf("httpauth: control plane wants scheme %s, got %q", SchemeProof, scheme)
	}
	raw, ok := params["proof"]
	if !ok {
		return nil, fmt.Errorf("httpauth: control-plane authorization missing proof parameter")
	}
	return g.Pipeline.Authorize([]byte(raw), reqPrin, g.Operator, ctl)
}

// ErrCtlNoProof reports a request that carried no Authorization
// header at all; servers answer it with a 401 challenge naming the
// operator and tag (Challenge), a failed proof with a 403.
var ErrCtlNoProof = errors.New("httpauth: control-plane authorization required")

// Challenge writes the control-plane 401 or 403 for a failed
// Authorize: a missing header earns the full challenge (scheme,
// operator issuer, minimum tag — the same headers as the data-plane
// protocol, so any Snowflake client knows what to prove), an
// unsatisfying proof a 403.
func (g *CtlGuard) Challenge(w http.ResponseWriter, ctl tag.Tag, err error) {
	if err == ErrCtlNoProof {
		w.Header().Set("WWW-Authenticate", SchemeProof)
		w.Header().Set(HdrServiceIssuer, string(g.Operator.Sexp().Transport()))
		w.Header().Set(HdrMinimumTag, string(ctl.Sexp().Transport()))
		http.Error(w, "401 Unauthorized: operator proof required", http.StatusUnauthorized)
		return
	}
	http.Error(w, err.Error(), http.StatusForbidden)
}

// CtlSigner signs outgoing control-plane requests: it proves the
// request hash speaks for the operator regarding the operation's
// control tag, exactly as the guard demands. The prover must hold a
// closure for the caller's key plus the delegation chain from that
// key to the operator (an imported credential, or a directory
// discovery source). Safe for concurrent use if the prover is.
type CtlSigner struct {
	// Prover finds or mints the chain request-hash -> caller-key ->
	// ... -> operator.
	Prover *prover.Prover
	// Operator is the principal the target daemon enforces.
	Operator principal.Principal
	// Clock for proof construction; nil means time.Now.
	Clock func() time.Time

	// lastSweep (unix nanos) schedules the prover hygiene below: each
	// Sign mints a unique request-hash edge into the prover's graph,
	// so a long-lived signer (a directory's replicator) would leak an
	// edge per mutation without periodic Sweep.
	lastSweep atomic.Int64
}

// CtlMintTTL bounds the validity of the per-request minted leaf
// ("request-hash speaks for caller-key"). The canonical request
// carries no nonce, so a captured authenticated request CAN be
// replayed verbatim until this leaf expires — the window is kept to
// a couple of minutes (generous clock skew plus transit), far below
// the prover's general-purpose default. Callers who build their own
// prover for a CtlSigner should set Prover.MintTTL comparably.
const CtlMintTTL = 2 * time.Minute

// NewCtlSigner builds a signer around a caller key and its credential
// chain: the key's closure and every certificate are digested into a
// fresh prover, with the replay-bounding CtlMintTTL. Callers needing
// discovery or extra closures build the prover themselves and fill
// the struct directly.
func NewCtlSigner(key prover.Closure, operator principal.Principal, chain ...*cert.Cert) *CtlSigner {
	pv := prover.New()
	pv.MintTTL = CtlMintTTL
	pv.AddClosure(key)
	for _, c := range chain {
		pv.AddProof(c)
	}
	return &CtlSigner{Prover: pv, Operator: operator}
}

func (s *CtlSigner) now() time.Time {
	if s.Clock != nil {
		return s.Clock()
	}
	return time.Now()
}

// Sign sets the Authorization header on req, whose body bytes must be
// passed explicitly (the request principal covers them). One
// signature per request: the prover mints "request-hash speaks for
// caller-key" through the key closure and composes it with the cached
// credential chain, so the chain itself is never re-proved. Expired
// request-hash edges are swept from the prover roughly once per
// CtlMintTTL so a long-lived signer's graph tracks its live working
// set instead of its lifetime mutation count.
func (s *CtlSigner) Sign(req *http.Request, body []byte, ctl tag.Tag) error {
	now := s.now()
	if last := s.lastSweep.Load(); now.UnixNano()-last > int64(CtlMintTTL) &&
		s.lastSweep.CompareAndSwap(last, now.UnixNano()) {
		s.Prover.Sweep(now)
	}
	reqPrin := ServerRequestPrincipal(req, body)
	proof, err := s.Prover.FindProof(reqPrin, s.Operator, ctl, now)
	if err != nil {
		return fmt.Errorf("httpauth: cannot prove control authority: %w", err)
	}
	req.Header.Set("Authorization", SchemeProof+` proof=`+string(proof.Sexp().Transport()))
	return nil
}
