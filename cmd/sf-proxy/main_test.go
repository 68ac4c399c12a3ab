package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/principal"
	"repro/internal/prover"
	"repro/internal/sexp"
	"repro/internal/sfkey"
	"repro/internal/tag"
)

// TestImportVerifiesChain: /import digests a pasted delegation only
// when its chain verifies; a forged one answers 400 and leaves the
// prover's graph empty.
func TestImportVerifiesChain(t *testing.T) {
	owner := sfkey.FromSeed([]byte("sf-proxy-owner"))
	user := sfkey.FromSeed([]byte("sf-proxy-user"))
	kOwner, kUser := principal.KeyOf(owner.Public()), principal.KeyOf(user.Public())
	good, err := cert.Delegate(owner, kUser, kOwner, tag.MustParse(`(tag (web (method GET)))`), core.Forever)
	if err != nil {
		t.Fatal(err)
	}
	forged := append([]byte(nil), good.Sexp().Canonical()...)
	forged[bytes.Index(forged, good.Signature)] ^= 1

	for _, tc := range []struct {
		name   string
		wire   []byte
		status int
		edges  int
	}{
		{"forged", sexp.Raw(forged).Transport(), http.StatusBadRequest, 0},
		{"verified", good.Sexp().Transport(), http.StatusOK, 1},
	} {
		p := &proxy{priv: user, pv: prover.New()}
		form := url.Values{"cert": {string(tc.wire)}}.Encode()
		req := httptest.NewRequest(http.MethodPost, "http://"+uiHost+"/import", strings.NewReader(form))
		req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
		rec := httptest.NewRecorder()
		p.ServeHTTP(rec, req)
		if rec.Code != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, rec.Code, tc.status, rec.Body)
		}
		if got := p.pv.EdgeCount(); got != tc.edges {
			t.Errorf("%s: prover holds %d edges, want %d", tc.name, got, tc.edges)
		}
	}
}
