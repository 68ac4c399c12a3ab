package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/bench"
	"repro/internal/cert"
	"repro/internal/certdir"
	"repro/internal/core"
	"repro/internal/emaildb"
	"repro/internal/httpauth"
	"repro/internal/loadgen"
	"repro/internal/obs"
	"repro/internal/principal"
	"repro/internal/prover"
	"repro/internal/sexp"
	"repro/internal/sfkey"
)

// replayInputs is what a workload hands to the layer replay: the
// delegation world it ran on and, when it made admits, one
// Authorization value captured from them.
type replayInputs struct {
	g    *loadgen.Graph
	auth string
}

// batchSigs is the batch size sfkey.BatchVerifier is timed over.
const batchSigs = 1024

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// layerReplay times each layer's public functions directly, on inputs
// taken from the workload that just ran: the paper's Table 1 by
// direct timing rather than by subtraction between configurations.
// Every call here is single-threaded and uncontended, so the numbers
// are the layers' costs, not their share of a loaded request.
func layerReplay(in *replayInputs, replayOpts bench.Options, workDir string) (map[string]float64, error) {
	out := map[string]float64{}
	g := in.g
	p := g.Principals[0]
	now := time.Now()
	perOp := func(name string, o bench.Options, op func() error) error {
		d, err := bench.PerOp(o, op)
		if err != nil {
			return fmt.Errorf("layer replay %s: %w", name, err)
		}
		out[name] = us(d)
		return nil
	}

	// sfkey: one signature, one verification, and the batch verifier.
	msg := p.Grant.Sexp().Canonical()
	sig := p.Key.Sign(msg)
	pub := p.Key.Public()
	if err := perOp("sfkey.sign_us", replayOpts, func() error { p.Key.Sign(msg); return nil }); err != nil {
		return nil, err
	}
	if err := perOp("sfkey.verify_us", replayOpts, func() error {
		if !pub.Verify(msg, sig) {
			return fmt.Errorf("good signature rejected")
		}
		return nil
	}); err != nil {
		return nil, err
	}
	var bv sfkey.BatchVerifier
	if err := perOp("sfkey.batch_verify_us_per_sig", bench.Options{Runs: replayOpts.Runs, Iters: 2, MaxRetries: replayOpts.MaxRetries}, func() error {
		bv.Reset()
		for i := 0; i < batchSigs; i++ {
			bv.Add(pub, msg, sig)
		}
		if bad := bv.Verify(); bad != nil {
			return fmt.Errorf("batch rejected %d good signatures", len(bad))
		}
		return nil
	}); err != nil {
		return nil, err
	}
	out["sfkey.batch_verify_us_per_sig"] /= batchSigs

	// sexp and core: parse what crosses the wire on an admit.
	auth := in.auth
	if auth == "" {
		req, err := signedRequest("http://127.0.0.1", p)
		if err != nil {
			return nil, err
		}
		auth = req.Header.Get("Authorization")
	}
	_, params := httpauth.ParseAuthHeader(auth)
	rpRaw := []byte(params["request-proof"])
	frame := p.Grant.Sexp().Canonical()
	if err := perOp("sexp.parse_us", replayOpts, func() error { _, err := sexp.ParseOne(frame); return err }); err != nil {
		return nil, err
	}
	if err := perOp("core.parse_proof_us", replayOpts, func() error { _, err := core.ParseProof(rpRaw); return err }); err != nil {
		return nil, err
	}

	// prover: a local search over a pre-fed graph, no directory.
	pv := prover.New()
	pv.AddProof(g.OrgRoots[p.Org])
	pv.AddProof(p.Grant)
	pv.AddProof(p.Handoff)
	subject := principal.QuoteOf(principal.KeyOf(g.GatewayKeys[p.Gateway].Public()), p.Prin)
	want := emaildb.OpTag(p.Owner, "select")
	chain, err := pv.FindProof(subject, g.DBIssuer, want, now)
	if err != nil {
		return nil, fmt.Errorf("layer replay: no local chain: %w", err)
	}
	if err := perOp("prover.find_local_us", replayOpts, func() error {
		_, err := pv.FindProof(subject, g.DBIssuer, want, now)
		return err
	}); err != nil {
		return nil, err
	}

	// cert: the same chain against an empty and a primed private cache.
	verify := func(cache *core.ProofCache) error {
		ctx := core.NewVerifyContext()
		ctx.Now, ctx.Cache = now, cache
		return cert.VerifyChain(ctx, chain)
	}
	if err := perOp("cert.verify_chain_cold_us", replayOpts, func() error { return verify(core.NewProofCache(64)) }); err != nil {
		return nil, err
	}
	primed := core.NewProofCache(64)
	if err := verify(primed); err != nil {
		return nil, err
	}
	if err := perOp("cert.verify_chain_warm_us", replayOpts, func() error { return verify(primed) }); err != nil {
		return nil, err
	}

	// certdir: Store.Publish into a journaled store — index, WAL append,
	// Merkle update. The signatures are checked before the clock starts,
	// so Publish's own verification is a cache hit.
	corpus, err := mintCorpus(1, "replay", replayOpts.Iters, now)
	if err != nil {
		return nil, err
	}
	vctx := core.NewVerifyContext()
	vctx.Now, vctx.Cache = now, core.SharedProofCache()
	for _, e := range cert.VerifyBatch(vctx, corpus) {
		if e != nil {
			return nil, e
		}
	}
	var storeUs []float64
	for run := 0; run <= replayOpts.Runs; run++ {
		dir, err := os.MkdirTemp(workDir, "replay-")
		if err != nil {
			return nil, err
		}
		st, _, err := certdir.OpenDurable(dir, 0, certdir.SyncNever, now)
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		start := time.Now()
		var pubErr error
		for _, c := range corpus {
			if _, pubErr = st.Publish(c, now); pubErr != nil {
				break
			}
		}
		d := time.Since(start)
		st.CloseWAL()
		os.RemoveAll(dir)
		if pubErr != nil {
			return nil, fmt.Errorf("layer replay certdir.store_publish_us: %w", pubErr)
		}
		if run > 0 { // first run discarded
			storeUs = append(storeUs, us(d)/float64(len(corpus)))
		}
	}
	out["certdir.store_publish_us"] = median(storeUs)

	// obs: one audit append.
	log := obs.NewAuditLog(0)
	dec := obs.Decision{Layer: "gateway", Op: "GET /mail", Principal: p.Prin.String(),
		Verdict: obs.VerdictAdmit, CertHashes: core.LeafHashes(chain)}
	d, err := bench.PerOp(replayOpts, func() error { log.Append(dec); return nil })
	if err != nil {
		return nil, err
	}
	out["obs.audit_append_ns"] = float64(d)
	return out, nil
}
