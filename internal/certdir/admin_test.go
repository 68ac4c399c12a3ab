package certdir

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/httpauth"
	"repro/internal/obs"
	"repro/internal/principal"
	"repro/internal/prover"
	"repro/internal/sfkey"
)

// adminSurface is one CRL admin surface under test, served over HTTP.
type adminSurface struct {
	url   string
	revs  *cert.RevocationStore
	hist  *obs.Histogram
	admin *Client // signed with an admin credential when guarded
	open  *Client // never signed
}

// samples reports how many installs the histogram observed.
func (s *adminSurface) samples() uint64 {
	_, _, n := s.hist.Snapshot()
	return n
}

// TestAdminSurface runs one behaviour table over both CRL admin
// surfaces — the directory Service and the store-less AdminHandler a
// pure verifier (sf-dbserver) mounts — open and guarded, all driven by
// the one Client over HTTP.
func TestAdminSurface(t *testing.T) {
	now := time.Now()
	v := core.Between(now.Add(-time.Minute), now.Add(time.Hour))
	op := sfkey.FromSeed([]byte("admin-surface-operator"))
	operator := principal.KeyOf(op.Public())
	adminKey := sfkey.FromSeed([]byte("admin-surface-admin"))
	adminCred, err := cert.DelegateCtl(op, principal.KeyOf(adminKey.Public()), time.Hour, cert.CtlAdmin)
	if err != nil {
		t.Fatal(err)
	}
	pubKey := sfkey.FromSeed([]byte("admin-surface-publisher"))
	pubCred, err := cert.DelegateCtl(op, principal.KeyOf(pubKey.Public()), time.Hour, cert.CtlPublish)
	if err != nil {
		t.Fatal(err)
	}
	issuer := sfkey.FromSeed([]byte("admin-surface-issuer"))
	hashes := make([][]byte, maxBody/32+1)
	for i := range hashes {
		hashes[i] = bytes.Repeat([]byte{byte(i)}, 32)
	}
	huge := cert.NewRevocationList(issuer, v, hashes...)

	rows := []struct {
		name  string
		serve func(rs *cert.RevocationStore, guard *httpauth.CtlGuard, hist *obs.Histogram) http.Handler
	}{
		{"service", func(rs *cert.RevocationStore, guard *httpauth.CtlGuard, hist *obs.Histogram) http.Handler {
			svc := NewService(NewStore(4))
			svc.Revocations = rs
			svc.Guard = guard
			svc.CRLHist = hist
			return svc
		}},
		{"storeless", func(rs *cert.RevocationStore, guard *httpauth.CtlGuard, hist *obs.Histogram) http.Handler {
			install := func(lists []*cert.RevocationList) (int, int, error) {
				res := InstallCRLs(rs, nil, lists, time.Now())
				return res.Installed, res.Evicted, res.Err
			}
			return AdminHandler(install, nil, guard, hist)
		}},
	}
	for _, row := range rows {
		for _, guarded := range []bool{false, true} {
			mode := "open"
			if guarded {
				mode = "guarded"
			}
			start := func(t *testing.T) *adminSurface {
				s := &adminSurface{revs: cert.NewRevocationStore(), hist: obs.NewHistogram("sf_test_crl_install_seconds", "test")}
				var guard *httpauth.CtlGuard
				if guarded {
					guard = httpauth.NewCtlGuard(operator, s.revs)
				}
				ts := httptest.NewServer(row.serve(s.revs, guard, s.hist))
				t.Cleanup(ts.Close)
				s.url, s.open, s.admin = ts.URL, NewClient(ts.URL), NewClient(ts.URL)
				if guarded {
					s.admin = signedClient(ts.URL, operator, adminKey, adminCred)
				}
				return s
			}
			name := row.name + "/" + mode + "/"

			t.Run(name+"install", func(t *testing.T) {
				s := start(t)
				rl := cert.NewRevocationList(issuer, v, []byte("hash-d-32-bytes-hash-d-32-bytes-"))
				if err := s.admin.PushCRL(rl); err != nil {
					t.Fatalf("install: %v", err)
				}
				if !s.revs.Has(rl.Hash()) || s.samples() != 1 {
					t.Fatalf("installed=%v samples=%d, want installed and 1 sample", s.revs.Has(rl.Hash()), s.samples())
				}
				if err := s.admin.PushCRL(rl); err != nil {
					t.Fatalf("duplicate not idempotent: %v", err)
				}
				if len(s.revs.Lists()) != 1 || s.samples() != 1 {
					t.Fatalf("duplicate: %d lists, %d samples; want 1 and 1", len(s.revs.Lists()), s.samples())
				}
			})

			t.Run(name+"forged", func(t *testing.T) {
				s := start(t)
				forged := cert.NewRevocationList(issuer, v, []byte("hash-e-32-bytes-hash-e-32-bytes-"))
				forged.Signature[0] ^= 1
				if err := s.admin.PushCRL(forged); err == nil || !strings.Contains(err.Error(), "status 400") {
					t.Fatalf("forged CRL: %v, want status 400", err)
				}
				if len(s.revs.Lists()) != 0 || s.samples() != 0 {
					t.Fatalf("forged CRL: %d lists, %d samples; want none", len(s.revs.Lists()), s.samples())
				}
			})

			// The body bound comes before the guard: an unsigned
			// over-limit CRL is a 413 even where it would be a 401.
			t.Run(name+"over-limit", func(t *testing.T) {
				s := start(t)
				if err := s.open.PushCRL(huge); err == nil || !strings.Contains(err.Error(), "status 413") {
					t.Fatalf("over-limit CRL: %v, want status 413", err)
				}
				if len(s.revs.Lists()) != 0 {
					t.Fatal("over-limit CRL installed")
				}
			})

			t.Run(name+"reload-no-file", func(t *testing.T) {
				s := start(t)
				_, err := s.admin.ReloadCRLs()
				if err == nil || !strings.Contains(err.Error(), "status 400") || !strings.Contains(err.Error(), "no CRL file") {
					t.Fatalf("reload with no file: %v, want status 400 naming no CRL file", err)
				}
			})

			if !guarded {
				continue
			}
			t.Run(name+"guard", func(t *testing.T) {
				s := start(t)
				rl := cert.NewRevocationList(issuer, v, []byte("hash-f-32-bytes-hash-f-32-bytes-"))
				body := rl.Sexp().Canonical()

				// Unsigned: 401 with the challenge naming operator and tag.
				resp, err := http.Post(s.url+PathAdminCRL, "text/plain", bytes.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusUnauthorized ||
					resp.Header.Get(httpauth.HdrServiceIssuer) == "" || resp.Header.Get(httpauth.HdrMinimumTag) == "" {
					t.Fatalf("unsigned: %d %v, want 401 with challenge headers", resp.StatusCode, resp.Header)
				}

				// A publish-only credential's proof does not cover the
				// admin tag: the guard refuses it (403).
				req, err := http.NewRequest(http.MethodPost, s.url+PathAdminCRL, bytes.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				pub := httpauth.NewCtlSigner(prover.NewKeyClosure(pubKey), operator, pubCred)
				if err := pub.Sign(req, body, cert.CtlTag(cert.CtlPublish)); err != nil {
					t.Fatal(err)
				}
				resp, err = http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusForbidden {
					t.Fatalf("publish credential: %d, want 403", resp.StatusCode)
				}
				if len(s.revs.Lists()) != 0 {
					t.Fatal("refused requests installed a CRL")
				}

				// The admin credential is accepted.
				if err := s.admin.PushCRL(rl); err != nil {
					t.Fatalf("admin credential refused: %v", err)
				}
				if !s.revs.Has(rl.Hash()) {
					t.Fatal("admin install did not land")
				}
			})
		}
	}
}
