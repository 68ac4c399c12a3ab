package certdir

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/principal"
	"repro/internal/prover"
	"repro/internal/sexp"
	"repro/internal/sfkey"
	"repro/internal/tag"
)

// fuzzQueryNow is the fixed clock of FuzzQueryDecode's directory.
var fuzzQueryNow = time.Unix(1_800_000_000, 0)

// FuzzQueryDecode posts arbitrary bytes to the query endpoint of a
// small directory: the org chain of a gateway's cold admit (db → org →
// client, client → gateway quoting client) plus a tag-all grant. The
// endpoint must never panic or answer 5xx, and every 200 must be
// exactly the store's answer to the decoded question — by issuer or by
// subject, with its limit and tag clauses. The seeds are the bodies a
// prover really sends over certdir.Client: the subject-side walk of a
// cold admit, and the issuer-side fallback of a search that dead-ends.
func FuzzQueryDecode(f *testing.F) {
	st := NewStore(4)
	svc := NewService(st)
	svc.Clock = func() time.Time { return fuzzQueryNow }
	v := core.Between(fuzzQueryNow.Add(-time.Hour), fuzzQueryNow.Add(time.Hour))
	key := func(name string) *sfkey.PrivateKey { return sfkey.FromSeed([]byte("fuzzquery-" + name)) }
	prin := func(k *sfkey.PrivateKey) principal.Principal { return principal.KeyOf(k.Public()) }
	db, org, client, gw, ch := key("db"), key("org"), key("client"), key("gw"), key("channel")
	owner := tag.ListOf(tag.Literal("db"), tag.ListOf(tag.Literal("owner"), tag.Literal("u00001")))
	for _, c := range []struct {
		signer  *sfkey.PrivateKey
		subject principal.Principal
		tg      tag.Tag
	}{
		{db, prin(org), tag.ListOf(tag.Literal("db"))},
		{org, prin(client), owner},
		{client, principal.QuoteOf(prin(gw), prin(client)), owner},
		{db, prin(gw), tag.All()},
	} {
		ct, err := cert.Delegate(c.signer, c.subject, prin(c.signer), c.tg, v)
		if err != nil {
			f.Fatal(err)
		}
		if _, err := st.Publish(ct, fuzzQueryNow); err != nil {
			f.Fatal(err)
		}
	}

	var mu sync.Mutex
	var bodies [][]byte
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		mu.Lock()
		bodies = append(bodies, body)
		mu.Unlock()
		r.Body = io.NopCloser(bytes.NewReader(body))
		svc.ServeHTTP(w, r)
	}))
	gateway := prover.New()
	gateway.AddClosure(prover.NewKeyClosure(gw))
	gateway.AddClosure(prover.NewKeyClosure(ch))
	gateway.AddRemote(NewClient(srv.URL))
	if _, err := gateway.FindProof(principal.QuoteOf(prin(ch), prin(client)), prin(db), owner, fuzzQueryNow); err != nil {
		f.Fatalf("seed walk: %v", err)
	}
	stranger := prover.New()
	stranger.AddRemote(NewClient(srv.URL))
	if _, err := stranger.FindProof(prin(key("stranger")), prin(db), owner, fuzzQueryNow); err == nil {
		f.Fatal("seed fallback proved a goal nobody delegated")
	}
	srv.Close()
	if st := stranger.Stats(); st.RemoteFallbacks == 0 {
		f.Fatalf("seeds never reached the issuer side: %+v", st)
	}
	for _, b := range bodies {
		f.Add(b)
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		svc.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, PathQuery, bytes.NewReader(body)))
		if rec.Code >= 500 {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
		}
		if rec.Code != http.StatusOK {
			return
		}
		e, err := sexp.ParseOne(body)
		if err != nil {
			t.Fatalf("answered 200 to an unparsable body: %v", err)
		}
		q, err := principal.FromSexp(e.Nth(2))
		if err != nil {
			t.Fatalf("answered 200 to a bad principal: %v", err)
		}
		filter, err := queryFilter(e)
		if err != nil {
			t.Fatalf("answered 200 to a bad clause: %v", err)
		}
		var want []*cert.Cert
		switch by := e.Nth(1).Text(); by {
		case "issuer":
			want = st.ByIssuerFiltered(q, fuzzQueryNow, filter)
		case "subject":
			want = st.BySubjectFiltered(q, fuzzQueryNow, filter)
		default:
			t.Fatalf("answered 200 on axis %q", by)
		}
		if got := rec.Body.Bytes(); !bytes.Equal(got, certsSexp(want).Canonical()) {
			t.Fatalf("answer differs from the store's %d certificates for %s", len(want), e)
		}
	})
}
