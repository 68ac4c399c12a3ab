package httpauth

import (
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"fmt"
	"maps"
	"strings"
	"testing"

	"repro/internal/sexp"
)

// FuzzAuthHeader drives parseAuthHeader, the Authorization parse the
// gateway, Protected and CtlGuard share. On any header it must not
// panic and must return a scheme without spaces and parameter names
// that are non-empty and hold no comma. On headers built the way the
// three producers build them — Client's proof scheme (with a
// request-proof for a quoting gateway), CtlSigner.Sign, and Client's
// MAC scheme — it must return exactly the scheme and the parameters
// that went in. The fuzzed byte strings stand in for the encoded
// proofs and the MAC key material.
func FuzzAuthHeader(f *testing.F) {
	f.Add(`SnowflakeProof proof={KDM6Zm9vKQ==}`, []byte("(3:foo)"), []byte("(3:bar)"))
	f.Add(`SnowflakeMAC keyid=0011223344556677, mac="q83v+/A="`, []byte{}, []byte{0xff})
	f.Add(` Bare `, []byte("a,b=c"), []byte(`"quoted"`))
	f.Add(`S k=,=v, k2 = v2 ,, "k3"="v3"`, []byte{0}, []byte("\n"))
	f.Fuzz(func(t *testing.T, raw string, a, b []byte) {
		scheme, params := parseAuthHeader(raw)
		if strings.ContainsRune(scheme, ' ') {
			t.Fatalf("%q: scheme %q holds a space", raw, scheme)
		}
		for k := range params {
			if k == "" || strings.ContainsRune(k, ',') {
				t.Fatalf("%q: parameter name %q", raw, k)
			}
		}

		proof := string(sexp.Atom(a).Transport())
		requestProof := string(sexp.Atom(b).Transport())
		sum := sha256.Sum256(a)
		keyID := hex.EncodeToString(sum[:8])
		mac := base64.StdEncoding.EncodeToString(b)
		for _, p := range []struct {
			header string
			scheme string
			params map[string]string
		}{
			{SchemeProof + ` proof=` + proof, SchemeProof, map[string]string{"proof": proof}},
			{SchemeProof + ` proof=` + proof + `, request-proof=` + requestProof, SchemeProof,
				map[string]string{"proof": proof, "request-proof": requestProof}},
			{fmt.Sprintf(`%s keyid=%s, mac=%s`, SchemeMAC, keyID, mac), SchemeMAC,
				map[string]string{"keyid": keyID, "mac": mac}},
		} {
			scheme, params := parseAuthHeader(p.header)
			if scheme != p.scheme || !maps.Equal(params, p.params) {
				t.Fatalf("%q parsed as %q %v, want %q %v", p.header, scheme, params, p.scheme, p.params)
			}
		}
	})
}
