package cert

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/tag"
)

// writeCRLFile lays CRLs into a temp file in the given layout:
// "lines" (one per line, sf-certd's historical layout) or "concat"
// (back to back, sf-dbserver's).
func writeCRLFile(t *testing.T, layout string, lists ...*RevocationList) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "revoked.crl")
	var raw []byte
	for _, rl := range lists {
		raw = append(raw, rl.Sexp().Transport()...)
		if layout == "lines" {
			raw = append(raw, '\n')
		}
	}
	if err := os.WriteFile(path, raw, 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLoadCRLFileBothLayouts is the loader-unification bugfix: the
// same multi-CRL file must load whether its expressions are separated
// by newlines or concatenated, so one CRL file serves every daemon.
func TestLoadCRLFileBothLayouts(t *testing.T) {
	signer, _ := keys("crlfile-signer")
	v := core.Until(time.Now().Add(time.Hour))
	a := NewRevocationList(signer, v, []byte("hash-a-32-bytes-hash-a-32-bytes-"))
	b := NewRevocationList(signer, v, []byte("hash-b-32-bytes-hash-b-32-bytes-"))
	for _, layout := range []string{"lines", "concat"} {
		path := writeCRLFile(t, layout, a, b)
		lists, err := LoadCRLFile(path)
		if err != nil {
			t.Fatalf("%s layout: %v", layout, err)
		}
		if len(lists) != 2 {
			t.Fatalf("%s layout: loaded %d lists, want 2", layout, len(lists))
		}
		if lists[0].Hash() != a.Hash() || lists[1].Hash() != b.Hash() {
			t.Fatalf("%s layout: lists loaded out of order or corrupted", layout)
		}
	}
}

func TestLoadCRLFileRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.crl")
	if err := os.WriteFile(path, []byte("(not-a-crl)"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCRLFile(path); err == nil {
		t.Fatal("garbage CRL file loaded without error")
	}
}

// TestAddNewDedup: re-installing a CRL already held must not grow the
// store or bump any attached cache epoch — the property hot reload
// rests on (a no-op reload costs no cache flush).
func TestAddNewDedup(t *testing.T) {
	signer, _ := keys("dedup-signer")
	rl := NewRevocationList(signer, core.Until(time.Now().Add(time.Hour)),
		[]byte("hash-c-32-bytes-hash-c-32-bytes-"))
	rs := NewRevocationStore()
	cache := core.NewProofCache(16)
	rs.AttachCache(cache)

	added, errs := rs.Add(rl)
	if errs[0] != nil || !added[0] {
		t.Fatalf("first Add: added=%v err=%v", added[0], errs[0])
	}
	epoch := cache.Epoch()
	added, errs = rs.Add(rl)
	if errs[0] != nil || added[0] {
		t.Fatalf("second Add: added=%v err=%v, want duplicate no-op", added[0], errs[0])
	}
	if cache.Epoch() != epoch {
		t.Fatal("duplicate CRL install bumped the cache epoch")
	}
	if got := len(rs.Lists()); got != 1 {
		t.Fatalf("Lists holds %d CRLs, want 1", got)
	}
	if !rs.Has(rl.Hash()) {
		t.Fatal("Has reports an installed CRL absent")
	}
}

// TestRevokedByIssuerAt: a CRL only voids certificates signed by the
// key that signed the CRL — the guard that keeps a network-supplied
// CRL from denying service to delegations its signer never granted —
// and a verifier bound to the store (Bind) applies the same rule as
// the directory's RevokedAt.
func TestRevokedByIssuerAt(t *testing.T) {
	issuer, issuerP := keys("rbi-issuer")
	mallory, _ := keys("rbi-mallory")
	_, bobP := keys("rbi-bob")
	now := time.Now()
	v := core.Between(now.Add(-time.Minute), now.Add(time.Hour))

	c, err := Delegate(issuer, bobP, issuerP, tag.All(), v)
	if err != nil {
		t.Fatal(err)
	}
	verify := func(rs *RevocationStore) error {
		ctx := core.NewVerifyContext()
		ctx.Now = now
		rs.Bind(ctx)
		return c.Verify(ctx)
	}

	rs := NewRevocationStore()
	// Mallory signs a CRL naming the issuer's certificate.
	if _, errs := rs.Add(NewRevocationList(mallory, v, c.Hash())); errs[0] != nil {
		t.Fatal(errs[0])
	}
	revoked := rs.RevokedAt(now)
	if revoked(c.Hash(), issuer.Public()) {
		t.Fatal("a stranger's CRL voided the issuer's delegation")
	}
	if !revoked(c.Hash(), mallory.Public()) {
		t.Fatal("signer-matched predicate missed the signer's own listing")
	}
	if err := verify(rs); err != nil {
		t.Fatalf("a verifier honored a stranger's CRL: %v", err)
	}
	// The issuer's own CRL does void it, for the directory and the
	// verifier alike.
	if _, errs := rs.Add(NewRevocationList(issuer, v, c.Hash())); errs[0] != nil {
		t.Fatal(errs[0])
	}
	if !rs.RevokedAt(now)(c.Hash(), issuer.Public()) {
		t.Fatal("issuer's own CRL did not void its delegation")
	}
	if err := verify(rs); err == nil {
		t.Fatal("a verifier ignored the issuer's own CRL")
	}
}
