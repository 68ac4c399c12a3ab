package certdir

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/principal"
	"repro/internal/sexp"
	"repro/internal/sfkey"
	"repro/internal/tag"
)

func startDirectory(t *testing.T) (*Store, *Client) {
	t.Helper()
	st := NewStore(4)
	ts := httptest.NewServer(NewService(st))
	t.Cleanup(ts.Close)
	return st, NewClient(ts.URL)
}

func TestServiceRoundTrip(t *testing.T) {
	now := time.Now()
	st, cl := startDirectory(t)

	alice := sfkey.FromSeed([]byte("svc-alice"))
	bobP := principal.KeyOf(sfkey.FromSeed([]byte("svc-bob")).Public())
	aliceP := principal.KeyOf(alice.Public())
	c := delegate(t, alice, bobP, tag.Prefix("mail"), core.Until(now.Add(time.Hour)))

	if err := cl.Publish(c); err != nil {
		t.Fatal(err)
	}
	if err := cl.Publish(c); err != nil { // duplicate is fine
		t.Fatal(err)
	}
	if st.Len() != 1 {
		t.Fatalf("server stored %d certs", st.Len())
	}

	got, err := cl.ByIssuer(aliceP)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !got[0].(*cert.Cert).Equal(c) {
		t.Fatalf("ByIssuer = %v", got)
	}
	// The wire round trip must preserve verifiability.
	if err := got[0].Verify(core.NewVerifyContext()); err != nil {
		t.Fatalf("fetched cert does not verify: %v", err)
	}

	got, err = cl.BySubject(bobP)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("BySubject = %v", got)
	}
	if got, err := cl.ByIssuer(bobP); err != nil || len(got) != 0 {
		t.Fatalf("ByIssuer(bob) = %v, %v", got, err)
	}
	// The tag clause travels: a delegation of mail does not cover img.
	ctx := context.Background()
	if got, err := cl.ByIssuerForCtx(ctx, aliceP, tag.Prefix("mail"), 1); err != nil || len(got) != 1 {
		t.Fatalf("ByIssuerForCtx(mail) = %v, %v", got, err)
	}
	if got, err := cl.BySubjectForCtx(ctx, bobP, tag.Prefix("img"), 0); err != nil || len(got) != 0 {
		t.Fatalf("BySubjectForCtx(img) = %v, %v", got, err)
	}

	removed, err := cl.Remove(c.Hash())
	if err != nil || !removed {
		t.Fatalf("Remove = %v, %v", removed, err)
	}
	removed, err = cl.Remove(c.Hash())
	if err != nil || removed {
		t.Fatalf("second Remove = %v, %v", removed, err)
	}
}

func TestServiceRejectsGarbage(t *testing.T) {
	_, cl := startDirectory(t)
	base := cl.BaseURL

	for _, tc := range []struct {
		name, path, body string
		wantStatus       int
	}{
		{"not sexp", PathPublish, "not an s-expression((", http.StatusBadRequest},
		{"not a proof", PathPublish, "(hello)", http.StatusBadRequest},
		{"bad query axis", PathQuery, "(query sideways (pseudo))", http.StatusBadRequest},
		{"bad query shape", PathQuery, "(query issuer)", http.StatusBadRequest},
		{"bad remove", PathRemove, "(remove)", http.StatusBadRequest},
		{"unknown path", "/nope", "(x)", http.StatusNotFound},
	} {
		resp, err := http.Post(base+tc.path, "text/plain", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.wantStatus {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.wantStatus)
		}
	}

	// GET on a POST endpoint.
	resp, err := http.Get(base + PathPublish)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET publish: status %d", resp.StatusCode)
	}
}

func TestServiceStats(t *testing.T) {
	now := time.Now()
	_, cl := startDirectory(t)
	alice := sfkey.FromSeed([]byte("stats-alice"))
	bobP := principal.KeyOf(sfkey.FromSeed([]byte("stats-bob")).Public())
	if err := cl.Publish(delegate(t, alice, bobP, tag.All(), core.Until(now.Add(time.Hour)))); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(cl.BaseURL + PathStats)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	e, err := sexp.ParseOne(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if e.Tag() != "stats" {
		t.Fatalf("stats reply = %s", e)
	}
	if got := e.Child("stored"); got == nil || got.Nth(1).Text() != "1" {
		t.Fatalf("stored = %s", e)
	}
	if got := e.Child("published"); got == nil || got.Nth(1).Text() != "1" {
		t.Fatalf("published = %s", e)
	}
}
