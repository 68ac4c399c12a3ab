package admit_test

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/admit"
	"repro/internal/cert"
	"repro/internal/channel/local"
	"repro/internal/core"
	"repro/internal/emaildb"
	"repro/internal/gateway"
	"repro/internal/httpauth"
	"repro/internal/obs"
	"repro/internal/principal"
	"repro/internal/prover"
	"repro/internal/rmi"
	"repro/internal/sexp"
	"repro/internal/sfkey"
	"repro/internal/tag"
)

// world holds the keys every rig shares: the issuer controlling the
// resource, the user it delegates to, an impostor it does not, and
// the quoting gateway's key.
type world struct {
	issuerKey, userKey, impostorKey, gwKey *sfkey.PrivateKey
	issuer                                 principal.Principal
}

func newWorld() *world {
	w := &world{
		issuerKey:   sfkey.FromSeed([]byte("admit-issuer")),
		userKey:     sfkey.FromSeed([]byte("admit-user")),
		impostorKey: sfkey.FromSeed([]byte("admit-impostor")),
		gwKey:       sfkey.FromSeed([]byte("admit-gateway")),
	}
	w.issuer = keyOf(w.issuerKey)
	return w
}

func keyOf(k *sfkey.PrivateKey) principal.Principal { return principal.KeyOf(k.Public()) }

// delegate has the issuer grant the user authority regarding t within v.
func (w *world) delegate(t *testing.T, grant tag.Tag, v core.Validity) *cert.Cert {
	t.Helper()
	d, err := cert.Delegate(w.issuerKey, keyOf(w.userKey), w.issuer, grant, v)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// config is what a case varies about the pipeline under test.
type config struct {
	cache *core.ProofCache      // nil: the process-wide default
	rs    *cert.RevocationStore // nil: no revocation state
}

func (c config) apply(p *admit.Pipeline) *obs.AuditLog {
	p.Cache, p.Revocations, p.Audit = c.cache, c.rs, obs.NewAuditLog(0)
	return p.Audit
}

// presentation is one request: who makes it, the delegation it rests
// on, an optional wrapper around the proof the pipeline under test
// verifies, and a number telling otherwise identical requests apart.
type presentation struct {
	as    *sfkey.PrivateKey
	deleg *cert.Cert
	wrap  func(core.Proof) core.Proof
	n     int
}

func (in presentation) wrapped(p core.Proof) core.Proof {
	if in.wrap != nil {
		return in.wrap(p)
	}
	return p
}

// rig is one way of reaching a pipeline. prepare builds the request
// (and does any out-of-band proof submission the transport has); the
// returned step makes the decision and reports nil for an admit.
type rig struct {
	pipe    *admit.Pipeline
	audit   *obs.AuditLog
	prepare func(t *testing.T, in presentation) (decide func() error)
}

func (r *rig) request(t *testing.T, in presentation) error {
	t.Helper()
	return r.prepare(t, in)()
}

// target is a rig constructor plus the delegation tags that do and do
// not cover the one request its rigs make.
type target struct {
	name            string
	covering, other tag.Tag
	build           func(t *testing.T, w *world, cfg config) *rig
}

var errDenied = errors.New("denied")

func transport(p core.Proof) []byte { return p.Sexp().Transport() }

// signedRequest has in.as sign this request: "request hash => in.as",
// valid for the next few minutes.
func signedRequest(t *testing.T, in presentation, reqPrin principal.Principal) *cert.Cert {
	t.Helper()
	now := time.Now()
	leaf, err := cert.Delegate(in.as, reqPrin, keyOf(in.as), tag.All(),
		core.Between(now.Add(-time.Minute), now.Add(5*time.Minute)))
	if err != nil {
		t.Fatal(err)
	}
	return leaf
}

// chained composes link with the delegation. When the delegation names
// someone other than link's issuer the two do not compose, and the
// delegation is presented alone — a proof about another subject.
func chained(link *cert.Cert, deleg *cert.Cert) core.Proof {
	chain, err := core.NewTransitivity(link, deleg)
	if err != nil {
		return deleg
	}
	return chain
}

var barePipelineTag = rmi.MethodTag("suite", "Op")

var targets = []target{
	{
		name:     "pipeline/presented",
		covering: rmi.ObjectTag("suite"), other: rmi.ObjectTag("elsewhere"),
		build: func(t *testing.T, w *world, cfg config) *rig {
			p := admit.New("bare")
			r := &rig{pipe: p, audit: cfg.apply(p)}
			r.prepare = func(t *testing.T, in presentation) func() error {
				speaker, raw := keyOf(in.as), transport(in.wrapped(in.deleg))
				return func() error {
					a := p.Begin("suite.Op", "")
					a.For(speaker, barePipelineTag)
					proof, err := p.Authorize(raw, speaker, w.issuer, barePipelineTag)
					if err != nil {
						a.Deny(err)
						return err
					}
					a.Cite(proof)
					a.Admit(false)
					return nil
				}
			}
			return r
		},
	},
	{
		name:     "pipeline/on-file",
		covering: rmi.ObjectTag("suite"), other: rmi.ObjectTag("elsewhere"),
		build: func(t *testing.T, w *world, cfg config) *rig {
			p := admit.New("bare")
			r := &rig{pipe: p, audit: cfg.apply(p)}
			r.prepare = func(t *testing.T, in presentation) func() error {
				_ = p.Submit(transport(in.wrapped(in.deleg)))
				speaker := keyOf(in.as)
				return func() error {
					a := p.Begin("suite.Op", "")
					a.For(speaker, barePipelineTag)
					cite, ok := p.AuthorizeOnFile(speaker, w.issuer, barePipelineTag)
					if !ok {
						a.Challenge("no valid proof on file")
						return errDenied
					}
					a.CiteFiled(cite)
					a.Admit(false)
					return nil
				}
			}
			return r
		},
	},
	{
		name:     "httpauth.Protected",
		covering: httpauth.SubtreeTag([]string{"GET"}, "files", "/pub/"),
		other:    httpauth.SubtreeTag([]string{"GET"}, "files", "/private/"),
		build: func(t *testing.T, w *world, cfg config) *rig {
			mapper := func(r *http.Request) (principal.Principal, tag.Tag, error) {
				return w.issuer, httpauth.RequestTag(r.Method, "files", r.URL.Path), nil
			}
			prot := httpauth.NewProtected("files", mapper,
				http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
			r := &rig{pipe: prot.Pipeline, audit: cfg.apply(prot.Pipeline)}
			r.prepare = func(t *testing.T, in presentation) func() error {
				req := httptest.NewRequest(http.MethodGet, fmt.Sprintf("http://files.test/pub/doc?n=%d", in.n), nil)
				reqPrin, _, err := httpauth.RequestPrincipal(req)
				if err != nil {
					t.Fatal(err)
				}
				chain := in.wrapped(chained(signedRequest(t, in, reqPrin), in.deleg))
				req.Header.Set("Authorization", httpauth.SchemeProof+" proof="+string(transport(chain)))
				return func() error { return serve(prot, req) }
			}
			return r
		},
	},
	{
		name:     "httpauth.CtlGuard",
		covering: cert.CtlTag(cert.CtlPublish), other: cert.CtlTag(cert.CtlAdmin),
		build: func(t *testing.T, w *world, cfg config) *rig {
			guard := httpauth.NewCtlGuard(w.issuer, nil)
			r := &rig{pipe: guard.Pipeline, audit: cfg.apply(guard.Pipeline)}
			r.prepare = func(t *testing.T, in presentation) func() error {
				req := httptest.NewRequest(http.MethodPost, fmt.Sprintf("http://dir.test/certdir/publish?n=%d", in.n), nil)
				chain := in.wrapped(chained(signedRequest(t, in, httpauth.ServerRequestPrincipal(req, nil)), in.deleg))
				req.Header.Set("Authorization", httpauth.SchemeProof+" proof="+string(transport(chain)))
				return func() error { return guard.Authorize(req, nil, cert.CtlTag(cert.CtlPublish)) }
			}
			return r
		},
	},
	{
		name:     "rmi.Server",
		covering: rmi.ObjectTag("suite"), other: rmi.ObjectTag("elsewhere"),
		build: func(t *testing.T, w *world, cfg config) *rig {
			srv := rmi.NewServer()
			r := &rig{pipe: srv.Pipeline, audit: cfg.apply(srv.Pipeline)}
			if err := srv.Register("suite", suiteObject{}, w.issuer, nil); err != nil {
				t.Fatal(err)
			}
			host := serveLocal(t, srv, "suite", w.issuerKey)
			r.prepare = func(t *testing.T, in presentation) func() error {
				// The channel key is the speaker; the proof is filed out of
				// band, so the client's empty prover can answer no challenge.
				c, err := rmi.Dial(local.Dialer{Host: host, Key: in.as.Public()}, "suite", prover.New())
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { c.Close() })
				_ = srv.AcceptProof(transport(in.wrapped(in.deleg)))
				return func() error {
					var reply string
					return c.Call("suite", "Op", "ping", &reply)
				}
			}
			return r
		},
	},
	{
		name:     "gateway.Gateway",
		covering: emaildb.OwnerTag("user"), other: emaildb.OwnerTag("somebody-else"),
		build: func(t *testing.T, w *world, cfg config) *rig {
			// The database behind the gateway makes the access decision
			// and holds the revocation state; the gateway's own pipeline
			// verifies what the client presents.
			mail, err := emaildb.NewService()
			if err != nil {
				t.Fatal(err)
			}
			db := rmi.NewServer()
			cfg.apply(db.Pipeline)
			if err := emaildb.Register(db, mail, w.issuer); err != nil {
				t.Fatal(err)
			}
			host := serveLocal(t, db, "emaildb", w.issuerKey)
			pv := gateway.NewProver(w.gwKey)
			dbc, err := rmi.Dial(local.Dialer{Host: host, Key: w.gwKey.Public()}, "emaildb", pv)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { dbc.Close() })
			gw := gateway.New(w.gwKey, dbc, w.issuer, pv)
			r := &rig{pipe: gw.Pipeline, audit: config{cache: cfg.cache}.apply(gw.Pipeline)}
			r.prepare = func(t *testing.T, in presentation) func() error {
				req := httptest.NewRequest(http.MethodGet, fmt.Sprintf("http://gw.test/mail?owner=user&n=%d", in.n), nil)
				reqPrin, _, err := httpauth.RequestPrincipal(req)
				if err != nil {
					t.Fatal(err)
				}
				rp := signedRequest(t, in, reqPrin)
				// The client consents to being quoted by the gateway.
				handoff, err := cert.Delegate(in.as, principal.QuoteOf(keyOf(w.gwKey), keyOf(in.as)),
					keyOf(in.as), tag.All(), core.Forever)
				if err != nil {
					t.Fatal(err)
				}
				chain := chained(handoff, in.deleg)
				req.Header.Set("Authorization", httpauth.SchemeProof+
					" proof="+string(transport(chain))+
					", request-proof="+string(transport(in.wrapped(rp))))
				return func() error { return serve(gw, req) }
			}
			return r
		},
	},
}

// suiteObject is the remote object the rmi rig protects.
type suiteObject struct{}

func (suiteObject) Op(args string, reply *string) error {
	*reply = args
	return nil
}

// serveLocal serves srv on an in-process channel host until the test
// ends.
func serveLocal(t *testing.T, srv *rmi.Server, name string, key *sfkey.PrivateKey) *local.Host {
	t.Helper()
	host := local.NewHost()
	l, err := host.Listen(name, key.Public())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go srv.Serve(l)
	return host
}

// serve runs one request through an HTTP adapter and maps any
// non-200 answer to an error.
func serve(h http.Handler, req *http.Request) error {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("%w: %d %s", errDenied, rec.Code, rec.Body.String())
	}
	return nil
}

// privateConfig is a config with its own cache and revocation store,
// wired so CRLs bump that cache.
func privateConfig() config {
	cfg := config{cache: core.NewProofCache(256), rs: cert.NewRevocationStore()}
	cfg.rs.AttachCache(cfg.cache)
	return cfg
}

// TestBehaviour is the one admission behaviour suite: the same cases
// against the bare pipeline and through every transport adapter.
func TestBehaviour(t *testing.T) {
	w := newWorld()
	past := core.Until(time.Now().Add(-time.Hour))
	for _, tg := range targets {
		verdicts := []struct {
			name     string
			grant    tag.Tag
			validity core.Validity
			as       *sfkey.PrivateKey
			admit    bool
		}{
			{"admit", tg.covering, core.Forever, w.userKey, true},
			{"wrong tag", tg.other, core.Forever, w.userKey, false},
			{"expired validity", tg.covering, past, w.userKey, false},
			{"subject mismatch", tg.covering, core.Forever, w.impostorKey, false},
		}
		for _, c := range verdicts {
			t.Run(tg.name+"/"+c.name, func(t *testing.T) {
				r := tg.build(t, w, privateConfig())
				deleg := w.delegate(t, c.grant, c.validity)
				for n := 0; n < 2; n++ { // the second request rides warm state
					err := r.request(t, presentation{as: c.as, deleg: deleg, n: n})
					if (err == nil) != c.admit {
						t.Fatalf("request %d: admitted=%v (err %v), want admitted=%v", n, err == nil, err, c.admit)
					}
				}
				last, ok := lastDecision(r.audit)
				if !ok {
					t.Fatal("no decision audited")
				}
				if wantAdmit := last.Verdict == obs.VerdictAdmit; wantAdmit != c.admit {
					t.Fatalf("audited verdict %q, want admit=%v", last.Verdict, c.admit)
				}
			})
		}

		t.Run(tg.name+"/revoked after CRL", func(t *testing.T) {
			cfg := privateConfig()
			r := tg.build(t, w, cfg)
			deleg := w.delegate(t, tg.covering, core.Forever)
			if err := r.request(t, presentation{as: w.userKey, deleg: deleg}); err != nil {
				t.Fatalf("before revocation: %v", err)
			}
			crl := cert.NewRevocationList(w.issuerKey, core.Forever, deleg.Hash())
			epoch := cfg.cache.Epoch()
			if added, errs := cfg.rs.Add(crl); errs[0] != nil || !added[0] {
				t.Fatalf("install CRL: added=%v err=%v", added[0], errs[0])
			}
			if got := cfg.cache.Epoch(); got != epoch+1 {
				t.Fatalf("epoch after CRL = %d, want %d", got, epoch+1)
			}
			// No ForgetProofs: the bump alone must flush every memoized
			// verdict, on file or cached.
			if err := r.request(t, presentation{as: w.userKey, deleg: deleg, n: 1}); err == nil {
				t.Fatal("admitted on a revoked delegation")
			}
			// A duplicate CRL is a no-op: no bump, and still denied.
			if added, errs := cfg.rs.Add(crl); errs[0] != nil || added[0] {
				t.Fatalf("duplicate CRL: added=%v err=%v", added[0], errs[0])
			}
			if got := cfg.cache.Epoch(); got != epoch+1 {
				t.Fatalf("duplicate CRL moved the epoch to %d", got)
			}
			if err := r.request(t, presentation{as: w.userKey, deleg: deleg, n: 2}); err == nil {
				t.Fatal("admitted on a revoked delegation after duplicate CRL")
			}
		})

		t.Run(tg.name+"/private cache vs default", func(t *testing.T) {
			deleg := w.delegate(t, tg.covering, core.Forever)
			lookups := func(c *core.ProofCache) int64 { return c.Hits() + c.Misses() }

			private := core.NewProofCache(256)
			r := tg.build(t, w, config{cache: private})
			if err := r.request(t, presentation{as: w.userKey, deleg: deleg}); err != nil {
				t.Fatal(err)
			}
			if lookups(private) == 0 || private.Len() == 0 {
				t.Fatalf("private cache unused: %d lookups, %d entries", lookups(private), private.Len())
			}

			shared := core.SharedProofCache()
			before, idle := lookups(shared), lookups(private)
			r = tg.build(t, w, config{})
			if err := r.request(t, presentation{as: w.userKey, deleg: deleg, n: 1}); err != nil {
				t.Fatal(err)
			}
			if lookups(shared) == before {
				t.Fatal("nil Cache did not fall back to the shared cache")
			}
			if lookups(private) != idle {
				t.Fatal("nil Cache consulted another pipeline's private cache")
			}
		})
	}
}

func lastDecision(l *obs.AuditLog) (obs.Decision, bool) {
	ds := l.Recent(1)
	if len(ds) == 0 {
		return obs.Decision{}, false
	}
	return ds[len(ds)-1], true
}

// hooked is a proof node that runs a test hook while it is being
// verified — the seam for "something happens mid-verification". It is
// decoded from the wire like any rule, so it reaches the pipeline
// through every adapter's real parse path.
type hooked struct{ inner core.Proof }

var midVerify func()

const ruleHooked = "admit-test-hook"

func init() {
	core.RegisterLeafDecoder(ruleHooked, func(e sexp.Sexp) (core.Proof, error) {
		if e.Len() != 3 {
			return nil, fmt.Errorf("malformed %s", ruleHooked)
		}
		inner, err := core.ProofFromSexp(e.Nth(2))
		if err != nil {
			return nil, err
		}
		return &hooked{inner}, nil
	})
}

func hook(p core.Proof) core.Proof { return &hooked{p} }

func (h *hooked) Conclusion() core.SpeaksFor { return h.inner.Conclusion() }
func (h *hooked) Children() []core.Proof     { return []core.Proof{h.inner} }
func (h *hooked) Sexp() sexp.Sexp {
	return sexp.List(sexp.String("proof"), sexp.String(ruleHooked), h.inner.Sexp())
}
func (h *hooked) Verify(ctx *core.VerifyContext) error {
	return ctx.VerifyCached(h, func() error {
		if midVerify != nil {
			midVerify()
		}
		return h.inner.Verify(ctx)
	})
}

// TestAuditEpochIsTheStartEpoch: a CRL that lands while a request's
// chain is being verified must not be the epoch its audit record
// carries — every layer stamps the epoch in force when the decision
// started.
func TestAuditEpochIsTheStartEpoch(t *testing.T) {
	w := newWorld()
	for _, tg := range targets {
		t.Run(tg.name, func(t *testing.T) {
			cfg := privateConfig()
			r := tg.build(t, w, cfg)
			decide := r.prepare(t, presentation{
				as: w.userKey, deleg: w.delegate(t, tg.covering, core.Forever), wrap: hook,
			})
			// Whatever prepare verified is forgotten, so the decision
			// itself verifies the chain — and mid-way, an unrelated CRL
			// is installed.
			cfg.cache.Reset()
			start := cfg.cache.Epoch()
			fired := 0
			midVerify = func() {
				fired++
				crl := cert.NewRevocationList(w.issuerKey, core.Forever, []byte("unrelated certificate"))
				if _, errs := cfg.rs.Add(crl); errs[0] != nil {
					t.Error(errs[0])
				}
			}
			defer func() { midVerify = nil }()
			if err := decide(); err != nil {
				t.Fatal(err)
			}
			if fired == 0 || cfg.cache.Epoch() != start+1 {
				t.Fatalf("hook fired %d times, epoch %d -> %d: no CRL landed mid-verification", fired, start, cfg.cache.Epoch())
			}
			d, ok := lastDecision(r.audit)
			if !ok || d.Verdict != obs.VerdictAdmit {
				t.Fatalf("last decision = %+v, want an admit", d)
			}
			if d.Epoch != start {
				t.Fatalf("audited epoch %d, want the start epoch %d", d.Epoch, start)
			}
			if d.View != cfg.rs.View() && tg.name != "gateway.Gateway" {
				t.Fatalf("audited view %d, want %d", d.View, cfg.rs.View())
			}
		})
	}
}

// TestColdProofVerifiesOutsideTheLock: signature work on a proof the
// pipeline has never seen runs with the pipeline mutex free, through
// every adapter.
func TestColdProofVerifiesOutsideTheLock(t *testing.T) {
	w := newWorld()
	for _, tg := range targets {
		t.Run(tg.name, func(t *testing.T) {
			r := tg.build(t, w, privateConfig())
			fired := 0
			midVerify = func() {
				fired++
				if r.pipe.Locked() {
					t.Error("chain verification ran under the pipeline mutex")
				}
			}
			defer func() { midVerify = nil }()
			err := r.request(t, presentation{
				as: w.userKey, deleg: w.delegate(t, tg.covering, core.Forever), wrap: hook,
			})
			if err != nil {
				t.Fatal(err)
			}
			if fired != 1 {
				t.Fatalf("cold proof verified %d times, want once", fired)
			}
		})
	}
}

// TestPresentedProofsAreNotRetained: a proof whose subject is one
// request's hash can never be presented again, so nothing of it may
// accumulate — not on file, and not past the memo bound in the
// persistent context.
func TestPresentedProofsAreNotRetained(t *testing.T) {
	w := newWorld()
	const requests = admit.MemoMax + 256 // each memoizes at least one request-unique verdict
	for _, tg := range targets {
		if tg.name != "httpauth.Protected" && tg.name != "httpauth.CtlGuard" {
			continue
		}
		t.Run(tg.name, func(t *testing.T) {
			r := tg.build(t, w, privateConfig())
			deleg := w.delegate(t, tg.covering, core.Forever)
			for n := 0; n < requests; n++ {
				if err := r.request(t, presentation{as: w.userKey, deleg: deleg, n: n}); err != nil {
					t.Fatal(err)
				}
			}
			filed, memo := r.pipe.Retained()
			if filed != 0 {
				t.Errorf("%d proofs on file after %d one-shot requests, want 0", filed, requests)
			}
			if memo > admit.MemoMax+8 {
				t.Errorf("memo holds %d verdicts after %d requests, bound is %d", memo, requests, admit.MemoMax)
			}
		})
	}
}

// TestFiledProofRecheckCostsNoSignatures: a CRL flushes every verdict,
// so the next decision on a filed proof re-authorizes it under the
// pipeline mutex — with revocation lookups only, since the filed
// certificates' signatures already verified when they were submitted.
func TestFiledProofRecheckCostsNoSignatures(t *testing.T) {
	w := newWorld()
	for _, tg := range targets {
		if tg.name != "pipeline/on-file" && tg.name != "rmi.Server" {
			continue
		}
		t.Run(tg.name, func(t *testing.T) {
			cfg := privateConfig()
			r := tg.build(t, w, cfg)
			deleg := w.delegate(t, tg.covering, core.Forever)
			decide := r.prepare(t, presentation{as: w.userKey, deleg: deleg})
			if err := decide(); err != nil {
				t.Fatalf("before any CRL: %v", err)
			}
			install := func(by *sfkey.PrivateKey) {
				t.Helper()
				epoch := cfg.cache.Epoch()
				if _, errs := cfg.rs.Add(cert.NewRevocationList(by, core.Forever, deleg.Hash())); errs[0] != nil {
					t.Fatal(errs[0])
				}
				if cfg.cache.Epoch() != epoch+1 {
					t.Fatal("CRL did not bump the epoch")
				}
			}
			decideCost := func() (int64, error) {
				start := sfkey.SigVerifies()
				err := decide()
				return sfkey.SigVerifies() - start, err
			}

			install(w.impostorKey) // a stranger's CRL voids nothing
			if n, err := decideCost(); err != nil || n != 0 {
				t.Fatalf("after a stranger's CRL: err=%v, %d signature checks (want admit, 0)", err, n)
			}
			install(w.issuerKey) // the grant's own signer revokes it
			if n, err := decideCost(); err == nil || n != 0 {
				t.Fatalf("after the signer's CRL: err=%v, %d signature checks (want deny, 0)", err, n)
			}
		})
	}
}
