package certdir

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/principal"
	"repro/internal/sexp"
	"repro/internal/sfkey"
	"repro/internal/tag"
)

// fuzzPublishNow is the fixed clock of FuzzPublishDecode's directory.
var fuzzPublishNow = time.Unix(1_800_000_000, 0)

// FuzzPublishDecode posts arbitrary bytes to the publish endpoint of an
// empty directory. The endpoint must never panic or answer 5xx, and
// the store may grow only by certificates the body carried that verify
// and are valid now — checked with a fresh verification context, not
// the proof cache the store shares. The seeds are one certificate, a
// (certs ...) run as a replicator pushes it, and the same run holding
// one forged certificate.
func FuzzPublishDecode(f *testing.F) {
	v := core.Between(fuzzPublishNow.Add(-time.Hour), fuzzPublishNow.Add(time.Hour))
	issuer := sfkey.FromSeed([]byte("fuzzpublish-issuer"))
	var run []*cert.Cert
	for _, name := range []string{"a", "b", "c"} {
		subject := principal.KeyOf(sfkey.FromSeed([]byte("fuzzpublish-" + name)).Public())
		c, err := cert.Delegate(issuer, subject, principal.KeyOf(issuer.Public()), tag.Literal(name), v)
		if err != nil {
			f.Fatal(err)
		}
		run = append(run, c)
	}
	f.Add(run[0].Sexp().Canonical())
	f.Add(certsSexp(run).Canonical())
	forged := *run[1]
	forged.Signature = append([]byte(nil), forged.Signature...)
	forged.Signature[0] ^= 1
	f.Add(certsSexp([]*cert.Cert{run[0], &forged, run[2]}).Canonical())

	f.Fuzz(func(t *testing.T, body []byte) {
		st := NewStore(4)
		svc := NewService(st)
		svc.Clock = func() time.Time { return fuzzPublishNow }
		rec := httptest.NewRecorder()
		svc.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, PathPublish, bytes.NewReader(body)))
		if rec.Code >= 500 {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
		}
		if rec.Code != http.StatusOK {
			if st.Len() != 0 {
				t.Fatalf("status %d, yet %d certificates indexed", rec.Code, st.Len())
			}
			return
		}
		e, err := sexp.ParseOne(body)
		if err != nil {
			t.Fatalf("answered 200 to an unparsable body: %v", err)
		}
		var sent []*cert.Cert
		if e.Tag() == "certs" {
			sent, err = parseCerts(e)
		} else {
			var c *cert.Cert
			c, err = certFromSexp(e)
			sent = []*cert.Cert{c}
		}
		if err != nil {
			t.Fatalf("answered 200 to a body that decodes to no certificates: %v", err)
		}
		// A forged copy shares its original's body hash, so judge the
		// certificate the store actually holds under each hash sent.
		indexed := map[string]bool{}
		for _, c := range sent {
			for _, held := range st.ByHashes([][]byte{c.Hash()}, fuzzPublishNow) {
				ctx := core.NewVerifyContext()
				ctx.Now = fuzzPublishNow
				ctx.Revalidate = func([]byte, string) error { return nil }
				if err := held.Verify(ctx); err != nil {
					t.Fatalf("indexed a certificate that does not verify: %v", err)
				}
				indexed[string(held.Hash())] = true
			}
		}
		if st.Len() != len(indexed) {
			t.Fatalf("store holds %d certificates, the body carried %d that verify", st.Len(), len(indexed))
		}
	})
}
