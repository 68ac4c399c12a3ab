package main

import (
	"bufio"
	"bytes"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/principal"
	"repro/internal/sexp"
	"repro/internal/sfkey"
	"repro/internal/tag"
)

// TestImportVerifiesChain: /import digests a pasted delegation only
// when its chain verifies; a forged one answers 400 and leaves the
// prover's graph empty. Each row boots the proxy the way main does.
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
		edges  string
	}{
		{"forged", sexp.Raw(forged).Transport(), http.StatusBadRequest, "0"},
		{"verified", good.Sexp().Transport(), http.StatusOK, "1"},
	} {
		n, err := daemon.Proxy([]string{"-addr", "127.0.0.1:0", "-admin-addr", "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		form := url.Values{"cert": {string(tc.wire)}}.Encode()
		req, err := http.NewRequest(http.MethodPost, "http://"+n.Addr+"/import", strings.NewReader(form))
		if err != nil {
			t.Fatal(err)
		}
		req.Host = "security.localhost"
		req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
		if got := proverEdges(t, n.AdminAddr); got != tc.edges {
			t.Errorf("%s: prover holds %s edges, want %s", tc.name, got, tc.edges)
		}
		n.Shutdown()
	}
}

// proverEdges reads the sf_prover_edges gauge from a proxy's /metrics.
func proverEdges(t *testing.T, admin string) string {
	t.Helper()
	resp, err := http.Get("http://" + admin + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "sf_prover_edges "); ok {
			return v
		}
	}
	t.Fatalf("no sf_prover_edges on %s/metrics", admin)
	return ""
}

// TestForwardDropsProxyConnection: a forwarded request carries the
// browser's headers to the origin, except Proxy-Connection, which is
// meant for the proxy alone.
func TestForwardDropsProxyConnection(t *testing.T) {
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Seen", r.Header.Get("X-Custom")+"|"+r.Header.Get("Proxy-Connection"))
	}))
	defer origin.Close()
	n, err := daemon.Proxy([]string{"-addr", "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Shutdown()
	req, err := http.NewRequest(http.MethodGet, "http://"+n.Addr+"/page", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Host = strings.TrimPrefix(origin.URL, "http://")
	req.Header.Set("X-Custom", "kept")
	req.Header.Set("Proxy-Connection", "keep-alive")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Seen"); got != "kept|" {
		t.Fatalf("origin saw X-Custom|Proxy-Connection = %q, want %q", got, "kept|")
	}
}
