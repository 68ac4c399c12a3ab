package cert

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sfkey"
)

// Batched certificate verification: the bulk ingestion paths (WAL
// replay, gossip verify-before-index, proof-chain verification) hand
// their certificates here instead of calling Verify one at a time.
// The signature stage — the expensive part — runs through one
// sfkey.BatchVerifier (aggregate pass over a worker pool, bisection
// on failure); everything contextual (issuer rooting, revocation,
// revalidation) still runs per certificate against the given context,
// and every verdict lands in the context's memo and the shared proof
// cache exactly as an individual Verify would leave it. A caller that
// re-verifies the same certificates afterwards (Store.Publish re-
// verifying before it indexes) therefore pays cache lookups, not
// signature checks.

// VerifyBatch verifies certs against ctx and returns one error slot
// per certificate (nil for the ones that verify). Certificates with a
// cached positive verdict, or whose decoded signature already verified,
// skip the signature batch entirely.
func VerifyBatch(ctx *core.VerifyContext, certs []*Cert) []error {
	errs := make([]error, len(certs))
	var bv sfkey.BatchVerifier
	pos := make([]int, 0, len(certs)) // batch index -> certs index
	for i, c := range certs {
		if c == nil {
			errs[i] = fmt.Errorf("cert: nil certificate")
			continue
		}
		if ctx.PeekVerified(c) || c.sigKnownGood() {
			continue // Verify below short-circuits on the cached verdict or skips the math
		}
		bv.Add(c.Signer, c.signingBytes(), c.Signature)
		pos = append(pos, i)
	}
	sigOK := make(map[int]bool, len(pos))
	for _, i := range pos {
		sigOK[i] = true
	}
	for _, bi := range bv.Verify() {
		sigOK[pos[bi]] = false
	}
	for i, c := range certs {
		if errs[i] != nil {
			continue
		}
		if ok, batched := sigOK[i]; batched {
			errs[i] = ctx.VerifyCached(c, func() error { return c.check(ctx, &ok) })
		} else {
			errs[i] = c.Verify(ctx)
		}
	}
	return errs
}

// VerifyChain verifies a whole proof tree with its certificate leaves
// batched: the leaves are collected, their signatures checked as one
// batch (seeding ctx's memo), and the tree then verified normally —
// every rule node finds its leaf verdicts already memoized. The
// verdict is exactly p.Verify(ctx)'s.
func VerifyChain(ctx *core.VerifyContext, p core.Proof) error {
	if p == nil {
		return fmt.Errorf("cert: nil proof")
	}
	var leaves []*Cert
	collectCerts(p, &leaves)
	if len(leaves) > 1 {
		VerifyBatch(ctx, leaves) // per-leaf errors resurface from the memo below
	}
	return p.Verify(ctx)
}

func collectCerts(p core.Proof, out *[]*Cert) {
	if c, ok := p.(*Cert); ok {
		*out = append(*out, c)
		return
	}
	for _, ch := range p.Children() {
		collectCerts(ch, out)
	}
}
