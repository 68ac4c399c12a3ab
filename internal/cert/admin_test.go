package cert

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// adminFixture serves AdminHandler over rs with an install function
// shaped like certdir.InstallCRLs bound to a pure verifier: no store
// to evict from, the first refusal reported as the error.
func adminFixture(rs *RevocationStore) http.Handler {
	install := func(lists []*RevocationList) (int, int, error) {
		added, errs := rs.Add(lists...)
		n := 0
		for i := range lists {
			if errs[i] != nil {
				return n, 0, errs[i]
			}
			if added[i] {
				n++
			}
		}
		return n, 0, nil
	}
	return AdminHandler(install, nil)
}

func adminPost(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec
}

func TestAdminHandlerInstallsThroughInstall(t *testing.T) {
	signer, _ := keys("admin-signer")
	v := core.Until(time.Now().Add(time.Hour))
	rl := NewRevocationList(signer, v, []byte("hash-d-32-bytes-hash-d-32-bytes-"))
	rs := NewRevocationStore()
	h := adminFixture(rs)

	if rec := adminPost(h, AdminPathCRL, rl.Sexp().Canonical()); rec.Code != http.StatusOK || rec.Body.String() != "(13:crl-installed)" {
		t.Fatalf("install: %d %q", rec.Code, rec.Body.String())
	}
	if !rs.Has(rl.Hash()) {
		t.Fatal("installed CRL missing from the store")
	}
	if rec := adminPost(h, AdminPathCRL, rl.Sexp().Canonical()); rec.Code != http.StatusOK || rec.Body.String() != "(13:crl-duplicate)" {
		t.Fatalf("duplicate: %d %q", rec.Code, rec.Body.String())
	}

	forged := NewRevocationList(signer, v, []byte("hash-e-32-bytes-hash-e-32-bytes-"))
	forged.Signature[0] ^= 1
	if rec := adminPost(h, AdminPathCRL, forged.Sexp().Canonical()); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad signature: %d %q, want 400", rec.Code, rec.Body.String())
	}
	if rs.Has(forged.Hash()) || len(rs.Lists()) != 1 {
		t.Fatal("forged CRL installed")
	}
}

// An over-limit CRL is refused as too large, like certdir's endpoints
// and CtlGuard, not truncated into a parse error.
func TestAdminHandlerRefusesOverLimitBody(t *testing.T) {
	signer, _ := keys("admin-big")
	hashes := make([][]byte, adminMaxBody/32+1)
	for i := range hashes {
		hashes[i] = bytes.Repeat([]byte{byte(i)}, 32)
	}
	rl := NewRevocationList(signer, core.Until(time.Now().Add(time.Hour)), hashes...)
	rs := NewRevocationStore()
	rec := adminPost(adminFixture(rs), AdminPathCRL, rl.Sexp().Canonical())
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-limit CRL: %d %q, want 413", rec.Code, rec.Body.String())
	}
	if len(rs.Lists()) != 0 {
		t.Fatal("over-limit CRL installed")
	}
}

func TestAdminHandlerReloadWithoutFile(t *testing.T) {
	rec := adminPost(adminFixture(NewRevocationStore()), AdminPathReload, []byte("(10:reload-crl)"))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "no CRL file") {
		t.Fatalf("reload with no file: %d %q, want 400", rec.Code, rec.Body.String())
	}
}
