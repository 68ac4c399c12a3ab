package cert

import (
	"testing"

	"repro/internal/core"
	"repro/internal/tag"
)

// FuzzCertVerify feeds arbitrary bytes to core.ParseProof, the path
// every received proof takes, and holds each decoded certificate to
// one rule: remembering that its signature verified never changes a
// verdict. A second Verify with a fresh context gives the first
// verdict; so does an independent decode of the same bytes; and once
// verified, the object with one signature byte flipped is refused.
// Verify must never panic, whatever the signer, signature or body
// shapes. The seeds are a good certificate, a forged one, and one
// with a revalidate clause.
func FuzzCertVerify(f *testing.F) {
	alice, kAlice := keys("fuzzcert-alice")
	_, kBob := keys("fuzzcert-bob")
	body := core.SpeaksFor{Subject: kBob, Issuer: kAlice, Tag: tag.All(), Validity: core.Forever}
	good, err := Sign(alice, body)
	if err != nil {
		f.Fatal(err)
	}
	forged := *good
	forged.Signature = append([]byte(nil), good.Signature...)
	forged.Signature[0] ^= 1
	reval, err := SignWithRevalidation(alice, body, "https://reval.example")
	if err != nil {
		f.Fatal(err)
	}
	for _, c := range []*Cert{good, &forged, reval} {
		f.Add(c.Sexp().Canonical())
	}

	rv := NewRevalidator()
	fresh := func() *core.VerifyContext {
		ctx := core.NewVerifyContext()
		ctx.Now = cacheNow
		ctx.Revalidate = rv.Revalidate
		return ctx
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		p, err := core.ParseProof(in)
		if err != nil {
			return
		}
		again, err := core.ParseProof(in)
		if err != nil {
			t.Fatalf("second decode of the same bytes failed: %v", err)
		}
		var certs, twins []*Cert
		collectCerts(p, &certs)
		collectCerts(again, &twins)
		if len(certs) != len(twins) {
			t.Fatalf("decodes hold %d and %d certificates", len(certs), len(twins))
		}
		for i, c := range certs {
			verdict := c.Verify(fresh()) == nil
			if (c.Verify(fresh()) == nil) != verdict {
				t.Fatalf("cert %d: second Verify changed the verdict (was %v)", i, verdict)
			}
			if (twins[i].Verify(fresh()) == nil) != verdict {
				t.Fatalf("cert %d: a fresh decode disagrees (verdict %v)", i, verdict)
			}
			if !verdict {
				continue
			}
			c.Signature[len(c.Signature)-1] ^= 1
			if c.Verify(fresh()) == nil {
				t.Fatalf("cert %d: verified object with a flipped signature byte accepted", i)
			}
			c.Signature[len(c.Signature)-1] ^= 1
			if c.Verify(fresh()) != nil {
				t.Fatalf("cert %d: restored signature refused", i)
			}
		}
	})
}
