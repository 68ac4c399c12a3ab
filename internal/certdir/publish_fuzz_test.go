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
// the store may grow only by the certificate the body carried, if it
// verifies and is valid now — checked with a fresh verification
// context, not the proof cache the store shares. The seeds are one
// certificate, the same with its signature forged, and one that
// expired before the directory's clock.
func FuzzPublishDecode(f *testing.F) {
	issuer := sfkey.FromSeed([]byte("fuzzpublish-issuer"))
	mint := func(name string, v core.Validity) *cert.Cert {
		subject := principal.KeyOf(sfkey.FromSeed([]byte("fuzzpublish-" + name)).Public())
		c, err := cert.Delegate(issuer, subject, principal.KeyOf(issuer.Public()), tag.Literal(name), v)
		if err != nil {
			f.Fatal(err)
		}
		return c
	}
	good := mint("a", core.Between(fuzzPublishNow.Add(-time.Hour), fuzzPublishNow.Add(time.Hour)))
	f.Add(good.Sexp().Canonical())
	forged := *good
	forged.Signature = append([]byte(nil), forged.Signature...)
	forged.Signature[0] ^= 1
	f.Add(forged.Sexp().Canonical())
	f.Add(mint("c", core.Between(fuzzPublishNow.Add(-2*time.Hour), fuzzPublishNow.Add(-time.Hour))).Sexp().Canonical())

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
		sent, err := certFromSexp(e)
		if err != nil {
			t.Fatalf("answered 200 to a body that decodes to no certificate: %v", err)
		}
		// A forged copy shares its original's body hash, so judge the
		// certificate the store actually holds under the hash sent.
		held := st.ByHashes([][]byte{sent.Hash()}, fuzzPublishNow)
		for _, c := range held {
			ctx := core.NewVerifyContext()
			ctx.Now = fuzzPublishNow
			ctx.Revalidate = func([]byte, string) error { return nil }
			if err := c.Verify(ctx); err != nil {
				t.Fatalf("indexed a certificate that does not verify: %v", err)
			}
		}
		if st.Len() != len(held) {
			t.Fatalf("store holds %d certificates, the body carried %d that verify", st.Len(), len(held))
		}
	})
}
