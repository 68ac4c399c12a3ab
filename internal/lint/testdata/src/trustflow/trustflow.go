// Package trustflow exercises the verify-before-index analyzer: a
// wire-decoded value must pass a Verify* call before it reaches a
// Publish/index/digest sink.
package trustflow

import (
	"context"
	"time"

	"repro/internal/cert"
	"repro/internal/certdir"
	"repro/internal/core"
	"repro/internal/principal"
	"repro/internal/prover"
	"repro/internal/sexp"
	"repro/internal/tag"
)

// publishUnverified plants whatever authority the network chose.
func publishUnverified(st *certdir.Store, raw []byte) error {
	e, err := sexp.ParseOne(raw)
	if err != nil {
		return err
	}
	p, err := core.ProofFromSexp(e)
	if err != nil {
		return err
	}
	c, ok := p.(*cert.Cert)
	if !ok {
		return nil
	}
	_, err = st.Publish(c, time.Now()) // want "wire-decoded value reaches certdir.Store.Publish"
	return err
}

// publishVerified screens the certificate first: clean.
func publishVerified(st *certdir.Store, ctx *core.VerifyContext, raw []byte) error {
	e, err := sexp.ParseOne(raw)
	if err != nil {
		return err
	}
	p, err := core.ProofFromSexp(e)
	if err != nil {
		return err
	}
	c, ok := p.(*cert.Cert)
	if !ok {
		return nil
	}
	if err := c.Verify(ctx); err != nil {
		return err
	}
	_, err = st.Publish(c, time.Now())
	return err
}

// digestUnverified feeds the prover's delegation graph from raw bytes.
func digestUnverified(pv *prover.Prover, raw []byte) error {
	e, err := sexp.ParseOne(raw)
	if err != nil {
		return err
	}
	p, err := core.ProofFromSexp(e)
	if err != nil {
		return err
	}
	pv.AddProof(p) // want "wire-decoded value reaches prover.Prover.AddProof"
	return nil
}

// importUnverified is the pasted-proof shape: ParseProof decodes in
// one call, and the result still carries no authority.
func importUnverified(pv *prover.Prover, raw []byte) error {
	p, err := core.ParseProof(raw)
	if err != nil {
		return err
	}
	pv.AddProof(p) // want "wire-decoded value reaches prover.Prover.AddProof"
	return nil
}

// importVerified checks the chain first: clean.
func importVerified(pv *prover.Prover, ctx *core.VerifyContext, raw []byte) error {
	p, err := core.ParseProof(raw)
	if err != nil {
		return err
	}
	if err := cert.VerifyChain(ctx, p); err != nil {
		return err
	}
	pv.AddProof(p)
	return nil
}

// digestQueried feeds a directory's query answer straight into the
// graph: the directory chose those proofs.
func digestQueried(pv *prover.Prover, dir *certdir.Client, iss principal.Principal) error {
	got, err := dir.ByIssuer(iss)
	if err != nil {
		return err
	}
	for _, p := range got {
		pv.AddProof(p) // want "wire-decoded value reaches prover.Prover.AddProof"
	}
	return nil
}

// digestDiscovered is the same through the prover's source interface.
func digestDiscovered(pv *prover.Prover, src prover.RemoteSource, sub principal.Principal, want tag.Tag) error {
	got, err := src.BySubjectForCtx(context.Background(), sub, want, prover.DefaultRemoteLimit)
	if err != nil {
		return err
	}
	pv.AddProof(got[0]) // want "wire-decoded value reaches prover.Prover.AddProof"
	return nil
}

// digestDiscoveredVerified screens each answer first: clean.
func digestDiscoveredVerified(pv *prover.Prover, src prover.RemoteSource, ctx *core.VerifyContext, iss principal.Principal, want tag.Tag) error {
	got, err := src.ByIssuerForCtx(context.Background(), iss, want, prover.DefaultRemoteLimit)
	if err != nil {
		return err
	}
	for _, p := range got {
		if err := p.Verify(ctx); err != nil {
			continue
		}
		pv.AddProof(p)
	}
	return nil
}

// publishBatch is the anti-entropy shape: VerifyBatch cleanses the
// slice, and with it the elements later ranged out of it.
func publishBatch(st *certdir.Store, ctx *core.VerifyContext, raws [][]byte) error {
	var certs []*cert.Cert
	for _, raw := range raws {
		e, err := sexp.ParseOne(raw)
		if err != nil {
			return err
		}
		p, err := core.ProofFromSexp(e)
		if err != nil {
			return err
		}
		if c, ok := p.(*cert.Cert); ok {
			certs = append(certs, c)
		}
	}
	for _, err := range cert.VerifyBatch(ctx, certs) {
		if err != nil {
			return err
		}
	}
	for _, c := range certs {
		if _, err := st.Publish(c, time.Now()); err != nil {
			return err
		}
	}
	return nil
}
