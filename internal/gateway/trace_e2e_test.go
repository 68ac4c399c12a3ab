package gateway

import (
	"encoding/hex"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/cert"
	"repro/internal/certdir"
	"repro/internal/channel/secure"
	"repro/internal/core"
	"repro/internal/emaildb"
	"repro/internal/httpauth"
	"repro/internal/obs"
	"repro/internal/principal"
	"repro/internal/prover"
	"repro/internal/rmi"
	"repro/internal/sfkey"
)

// tracedMesh is the two-domain observability world: a front-end
// domain (gateway + its prover) and a database domain (RMI email
// database + its certificate directory), each layer holding its own
// span recorder so a test can assert one request's trace crosses all
// of them.
type tracedMesh struct {
	dbKey, gwKey, aliceKey *sfkey.PrivateKey
	dbIssuer, alice        principal.Principal
	gw                     *Gateway
	gwHTTP                 *httptest.Server
	gwRec, dirRec, dbRec   *obs.Recorder
	gwAudit, dbAudit       *obs.AuditLog
	dirStore               *certdir.Store
	dbRevocations          *cert.RevocationStore
	cold, warm             *obs.Histogram
	pv                     *prover.Prover
}

func newTracedMesh(t *testing.T) *tracedMesh {
	t.Helper()
	return newTracedMeshServing(t, nil)
}

// newTracedMeshServing is newTracedMesh with the database serving
// wrap(service) in place of the bare service (nil wrap: the service).
func newTracedMeshServing(t *testing.T, wrap func(*emaildb.Service) interface{}) *tracedMesh {
	t.Helper()
	w := &tracedMesh{
		dbKey:    sfkey.FromSeed([]byte("trace-db-key")),
		gwKey:    sfkey.FromSeed([]byte("trace-gw-key")),
		aliceKey: sfkey.FromSeed([]byte("trace-alice")),
		gwRec:    obs.NewRecorder(0),
		dirRec:   obs.NewRecorder(0),
		dbRec:    obs.NewRecorder(0),
		gwAudit:  obs.NewAuditLog(0),
		dbAudit:  obs.NewAuditLog(0),
		cold:     obs.NewHistogram("sf_admit_cold_seconds", "test"),
		warm:     obs.NewHistogram("sf_admit_warm_seconds", "test"),
	}
	w.dbIssuer = principal.KeyOf(w.dbKey.Public())
	w.alice = principal.KeyOf(w.aliceKey.Public())

	// Database domain: RMI email service over a secure channel, with
	// revocation enforced and every dispatch traced and audited.
	svc, err := emaildb.NewService()
	if err != nil {
		t.Fatal(err)
	}
	var ir emaildb.InsertReply
	if err := svc.Insert(emaildb.InsertArgs{Msg: emaildb.Message{
		Owner: "alice", Folder: "inbox", From: "carol", To: "alice",
		Subject: "traced hello", Date: time.Now(),
	}}, &ir); err != nil {
		t.Fatal(err)
	}
	dbSrv := rmi.NewServer()
	dbSrv.Obs = w.dbRec
	dbSrv.Audit = w.dbAudit
	w.dbRevocations = cert.NewRevocationStore()
	if wrap == nil {
		err = emaildb.RegisterWithRevocation(dbSrv, svc, w.dbIssuer, w.dbRevocations)
	} else {
		if dbSrv.Cache != nil {
			w.dbRevocations.AttachCache(dbSrv.Cache)
		}
		dbSrv.Revocations = w.dbRevocations
		err = dbSrv.Register(emaildb.ObjectName, wrap(svc), w.dbIssuer, emaildb.TagFor)
	}
	if err != nil {
		t.Fatal(err)
	}
	l, err := secure.Listen("127.0.0.1:0", &secure.Identity{Priv: w.dbKey})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go dbSrv.Serve(l)

	// The database domain's certificate directory, traced.
	w.dirStore = certdir.NewStore(certdir.DefaultShards)
	dirSvc := certdir.NewService(w.dirStore)
	dirSvc.Obs = w.dirRec
	dirHTTP := httptest.NewServer(dirSvc)
	t.Cleanup(dirHTTP.Close)

	// Front-end domain: the gateway's prover discovers chains from the
	// directory instead of being handed them.
	w.pv = NewProver(w.gwKey)
	id, err := secure.NewIdentity()
	if err != nil {
		t.Fatal(err)
	}
	w.pv.AddClosure(prover.NewKeyClosure(id.Priv))
	w.pv.AddRemote(certdir.NewClient(dirHTTP.URL))
	dbClient, err := rmi.Dial(secure.Dialer{ID: id}, l.Addr().String(), w.pv)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dbClient.Close() })

	w.gw = New(w.gwKey, dbClient, w.dbIssuer, w.pv)
	w.gw.Obs = w.gwRec
	w.gw.Audit = w.gwAudit
	w.gw.ColdAdmit = w.cold
	w.gw.WarmAdmit = w.warm
	w.gwHTTP = httptest.NewServer(w.gw)
	t.Cleanup(w.gwHTTP.Close)
	return w
}

// publish stores a certificate in the database domain's directory.
func (w *tracedMesh) publish(t *testing.T, c *cert.Cert) {
	t.Helper()
	if added, err := w.dirStore.Publish(c, time.Now()); err != nil || !added {
		t.Fatalf("publish: added=%v err=%v", added, err)
	}
}

// signedRequest builds a request carrying ONLY the signed-request
// artifact (R => alice) — no delegation proof — so the gateway's
// prover must discover the chain from the directory.
func (w *tracedMesh) signedRequest(t *testing.T, method, url string) *http.Request {
	t.Helper()
	return signedRequestBy(t, w.aliceKey, "alice", method, url)
}

// signedRequestBy is signedRequest for any mailbox owner's key.
func signedRequestBy(t *testing.T, key *sfkey.PrivateKey, owner, method, url string) *http.Request {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	reqPrin, _, err := httpauth.RequestPrincipal(req)
	if err != nil {
		t.Fatal(err)
	}
	apv := prover.New()
	apv.AddClosure(prover.NewKeyClosure(key))
	now := time.Now()
	rp, err := apv.Delegate(principal.KeyOf(key.Public()), reqPrin, emaildb.OwnerTag(owner),
		core.Between(now.Add(-time.Minute), now.Add(5*time.Minute)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization",
		httpauth.SchemeProof+` request-proof=`+string(rp.Sexp().Transport()))
	return req
}

func certHash(c *cert.Cert) string {
	h := c.Sexp().Hash()
	return hex.EncodeToString(h[:])
}

func spansByName(rec *obs.Recorder, name string) []obs.Span {
	var out []obs.Span
	for _, sp := range rec.Spans() {
		if sp.Name == name {
			out = append(out, sp)
		}
	}
	return out
}

// TestColdAdmitTraceAcrossMesh drives one cold admit across the
// two-domain mesh and asserts a single trace ID links the gateway's
// admit span, the prover's remote-fetch span, and the directory's
// query span — and that the database's audit record names the exact
// certificate hashes of the discovered proof chain.
func TestColdAdmitTraceAcrossMesh(t *testing.T) {
	w := newTracedMesh(t)

	// The chain lives in the directory, not the request: the database
	// owner granted alice her mailbox, and alice consented to being
	// quoted by the gateway.
	grant, err := cert.Delegate(w.dbKey, w.alice, w.dbIssuer, emaildb.OwnerTag("alice"), core.Forever)
	if err != nil {
		t.Fatal(err)
	}
	gwPrin := principal.KeyOf(w.gwKey.Public())
	handoff, err := cert.Delegate(w.aliceKey, principal.QuoteOf(gwPrin, w.alice),
		w.alice, emaildb.OwnerTag("alice"), core.Forever)
	if err != nil {
		t.Fatal(err)
	}
	w.publish(t, grant)
	w.publish(t, handoff)

	req := w.signedRequest(t, http.MethodGet, w.gwHTTP.URL+"/mail?owner=alice&folder=inbox")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "traced hello") {
		t.Fatalf("cold admit failed: %d %s", resp.StatusCode, body)
	}

	// One trace, rooted at the gateway.
	admits := spansByName(w.gwRec, "gateway.admit")
	if len(admits) != 1 {
		t.Fatalf("gateway.admit spans = %d, want 1", len(admits))
	}
	trace := admits[0].Trace
	if trace == "" {
		t.Fatal("gateway.admit span has no trace ID")
	}

	// The prover's remote fetch rode the same trace...
	remotes := spansByName(w.gwRec, "prover.remote")
	if len(remotes) == 0 {
		t.Fatal("no prover.remote span recorded (chain was not discovered remotely)")
	}
	for _, sp := range remotes {
		if sp.Trace != trace {
			t.Fatalf("prover.remote trace %s != admit trace %s", sp.Trace, trace)
		}
	}
	// ...as did the directory's query handling in the other domain...
	queries := spansByName(w.dirRec, "certdir.query")
	if len(queries) == 0 {
		t.Fatal("no certdir.query span recorded")
	}
	linked := false
	for _, sp := range queries {
		if sp.Trace == trace {
			linked = true
		}
	}
	if !linked {
		t.Fatalf("no certdir.query span carries trace %s", trace)
	}
	// ...and the database's RMI dispatch.
	linked = false
	for _, sp := range w.dbRec.Spans() {
		if strings.HasPrefix(sp.Name, "rmi.") && sp.Trace == trace {
			linked = true
		}
	}
	if !linked {
		t.Fatalf("no rmi.* span carries trace %s", trace)
	}
	// ...including the database's verification of the submitted chain,
	// so a cold admit's signature checks are not hidden in the
	// gateway's own time.
	submits := spansByName(w.dbRec, "rmi._proofRecipient.Submit")
	if len(submits) != 1 {
		t.Fatalf("rmi._proofRecipient.Submit spans = %d, want 1", len(submits))
	}
	if submits[0].Trace != trace {
		t.Fatalf("proof submit trace %q != admit trace %s", submits[0].Trace, trace)
	}

	// The database's admit record names the exact certs of the chain.
	var admit *obs.Decision
	for _, d := range w.dbAudit.Recent(50) {
		if d.Layer == "rmi" && d.Verdict == obs.VerdictAdmit && d.Op == "emaildb.Select" {
			dd := d
			admit = &dd
		}
	}
	if admit == nil {
		t.Fatalf("no rmi admit audit record; have %+v", w.dbAudit.Recent(50))
	}
	if admit.Trace != trace {
		t.Fatalf("rmi audit trace %s != admit trace %s", admit.Trace, trace)
	}
	for _, want := range []string{certHash(grant), certHash(handoff)} {
		found := false
		for _, h := range admit.CertHashes {
			if h == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("rmi audit cert hashes %v missing chain cert %s", admit.CertHashes, want)
		}
	}

	// Gateway-side: the admit was audited as cold and timed as cold.
	var gwAdmit *obs.Decision
	for _, d := range w.gwAudit.Recent(10) {
		if d.Verdict == obs.VerdictAdmit {
			dd := d
			gwAdmit = &dd
		}
	}
	if gwAdmit == nil {
		t.Fatal("no gateway admit audit record")
	}
	if gwAdmit.Layer != "gateway" || gwAdmit.Trace != trace || gwAdmit.CacheHit {
		t.Fatalf("gateway admit record = %+v, want layer gateway, trace %s, cold", gwAdmit, trace)
	}
	if _, _, n := w.cold.Snapshot(); n != 1 {
		t.Fatalf("cold-admit histogram count = %d, want 1", n)
	}
	if _, _, n := w.warm.Snapshot(); n != 0 {
		t.Fatalf("warm-admit histogram count = %d, want 0", n)
	}
}

// lastDecision returns the most recent decision in the log.
func lastDecision(t *testing.T, l *obs.AuditLog) obs.Decision {
	t.Helper()
	ds := l.Recent(1)
	if len(ds) != 1 {
		t.Fatal("no audit decision recorded")
	}
	return ds[0]
}

// TestGatewayAuditDenyAndChallengePaths asserts every refusal path
// leaves a complete audit record: challenge on a bare request, deny on
// a garbage Authorization header, deny on an unknown principal with no
// chain (prover miss), and deny on a revoked chain.
func TestGatewayAuditDenyAndChallengePaths(t *testing.T) {
	w := newTracedMesh(t)
	url := w.gwHTTP.URL + "/mail?owner=alice&folder=inbox"

	t.Run("challenge without auth header", func(t *testing.T) {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		d := lastDecision(t, w.gwAudit)
		if d.Verdict != obs.VerdictChallenge || d.Layer != "gateway" ||
			d.Op != "GET /mail" || d.Principal == "" || d.Tag == "" ||
			d.Reason == "" || d.Trace == "" {
			t.Fatalf("incomplete challenge record: %+v", d)
		}
	})

	t.Run("deny on bad auth header", func(t *testing.T) {
		req, _ := http.NewRequest(http.MethodGet, url, nil)
		req.Header.Set("Authorization", "Basic dXNlcjpwYXNz")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusForbidden {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		d := lastDecision(t, w.gwAudit)
		if d.Verdict != obs.VerdictDeny || !strings.Contains(d.Reason, "unsupported scheme") ||
			d.Principal == "" || d.Trace == "" {
			t.Fatalf("incomplete deny record: %+v", d)
		}
	})

	t.Run("deny on unknown principal", func(t *testing.T) {
		// Alice signs her request but NOTHING vouches for her: the
		// directory is empty, so the forward dies on the prover miss.
		req := w.signedRequest(t, http.MethodGet, url)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusForbidden {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		d := lastDecision(t, w.gwAudit)
		if d.Verdict != obs.VerdictDeny || d.Principal != w.alice.String() ||
			d.Reason == "" || d.Duration < 0 || d.Trace == "" {
			t.Fatalf("incomplete deny record: %+v", d)
		}
	})

	t.Run("deny on revoked chain", func(t *testing.T) {
		grant, err := cert.Delegate(w.dbKey, w.alice, w.dbIssuer, emaildb.OwnerTag("alice"), core.Forever)
		if err != nil {
			t.Fatal(err)
		}
		gwPrin := principal.KeyOf(w.gwKey.Public())
		handoff, err := cert.Delegate(w.aliceKey, principal.QuoteOf(gwPrin, w.alice),
			w.alice, emaildb.OwnerTag("alice"), core.Forever)
		if err != nil {
			t.Fatal(err)
		}
		w.publish(t, grant)
		w.publish(t, handoff)
		// The database has already seen the grant revoked.
		crl := cert.NewRevocationList(w.dbKey, core.Until(time.Now().Add(time.Hour)), grant.Hash())
		if _, errs := w.dbRevocations.Add(crl); errs[0] != nil {
			t.Fatal(errs[0])
		}

		req := w.signedRequest(t, http.MethodGet, url)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusForbidden {
			t.Fatalf("status = %d (revoked chain admitted)", resp.StatusCode)
		}
		d := lastDecision(t, w.gwAudit)
		if d.Verdict != obs.VerdictDeny || d.Principal != w.alice.String() || d.Reason == "" {
			t.Fatalf("incomplete deny record: %+v", d)
		}
		// The database's own audit trail shows the denial too.
		denied := false
		for _, dd := range w.dbAudit.Recent(20) {
			if dd.Layer == "rmi" && dd.Verdict != obs.VerdictAdmit {
				denied = true
			}
		}
		if !denied {
			t.Fatal("database audit log shows no non-admit verdict for the revoked chain")
		}
	})
}
