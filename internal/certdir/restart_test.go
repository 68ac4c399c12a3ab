package certdir_test

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/cert"
	"repro/internal/certdir"
	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/httpauth"
	"repro/internal/principal"
	"repro/internal/prover"
	"repro/internal/sexp"
	"repro/internal/sfkey"
	"repro/internal/tag"
)

// TestCtlRevocationSurvivesRestart: a CRL installed over the admin
// endpoint of a durable, guarded directory is in force after a restart.
// sf-certd boots twice over one data directory through daemon.Certd,
// the function its main runs. After the restart a publish under the
// revoked credential is still refused, the stats endpoint reports the
// list, and the lone directory's next snapshot carries it.
func TestCtlRevocationSurvivesRestart(t *testing.T) {
	now := time.Now()
	v := core.Between(now.Add(-time.Minute), now.Add(time.Hour))
	op := sfkey.FromSeed([]byte("ctl-restart-operator"))
	operator := principal.KeyOf(op.Public())
	dir := t.TempDir()
	opFile := filepath.Join(t.TempDir(), "operator.prin")
	if err := os.WriteFile(opFile, operator.Sexp().Advanced(), 0o600); err != nil {
		t.Fatal(err)
	}
	boot := func() (*daemon.Node, string) {
		n, err := daemon.Certd([]string{"-addr", "127.0.0.1:0", "-data-dir", dir, "-admin-auth", "-operator", opFile})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Shutdown)
		return n, "http://" + n.Addr
	}
	signed := func(url string, key *sfkey.PrivateKey, chain ...*cert.Cert) *certdir.Client {
		c := certdir.NewClient(url)
		c.Ctl = httpauth.NewCtlSigner(prover.NewKeyClosure(key), operator, chain...)
		return c
	}

	pubKey := sfkey.FromSeed([]byte("ctl-restart-publisher"))
	cred, err := cert.DelegateCtl(op, principal.KeyOf(pubKey.Public()), time.Hour, cert.CtlPublish)
	if err != nil {
		t.Fatal(err)
	}
	issuer := sfkey.FromSeed([]byte("ctl-restart-issuer"))
	delegation := func(name string) *cert.Cert {
		subject := principal.KeyOf(sfkey.FromSeed([]byte(name)).Public())
		c, err := cert.Delegate(issuer, subject, principal.KeyOf(issuer.Public()), tag.Prefix("files/"), v)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	lockout := cert.NewRevocationList(op, v, cred.Hash())

	n, url := boot()
	if err := signed(url, pubKey, cred).Publish(delegation("ctl-restart-before")); err != nil {
		t.Fatalf("publish before the revocation refused: %v", err)
	}
	if err := signed(url, op).PushCRL(lockout); err != nil {
		t.Fatalf("operator CRL install refused: %v", err)
	}
	if err := signed(url, pubKey, cred).Publish(delegation("ctl-restart-revoked")); err == nil {
		t.Fatal("revoked credential accepted before the restart")
	}
	n.Shutdown() // closes the WAL, as SIGTERM does

	_, url = boot()
	if err := signed(url, pubKey, cred).Publish(delegation("ctl-restart-after")); err == nil {
		t.Fatal("revoked credential accepted after the restart")
	}
	resp, err := http.Get(url + certdir.PathStats)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	stats, err := sexp.ParseOne(body)
	if err != nil {
		t.Fatal(err)
	}
	if got := stats.Child("crls"); got == nil || got.Nth(1).Text() != "1" {
		t.Fatalf("stats after the restart = %s, want (crls 1)", stats)
	}
	rc, err := certdir.NewClient(url).Snapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	snap, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(snap, sexp.AppendFrame(nil, certdir.CRLRecord(lockout))) {
		t.Fatal("the next snapshot does not carry the list")
	}
}
