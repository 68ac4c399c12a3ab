package daemon

import (
	"bufio"
	"bytes"
	"context"
	"encoding/base64"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/cert"
	"repro/internal/certdir"
	"repro/internal/core"
	"repro/internal/httpauth"
	"repro/internal/principal"
	"repro/internal/sfkey"
)

// writeKey writes a seeded key the way sf-keygen does and returns its
// path.
func writeKey(t *testing.T, dir, seed string) (string, *sfkey.PrivateKey) {
	t.Helper()
	priv := sfkey.FromSeed([]byte(seed))
	path := filepath.Join(dir, seed+".key")
	if err := os.WriteFile(path, []byte(base64.StdEncoding.EncodeToString(priv.Bytes())+"\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	return path, priv
}

// writePrincipal writes the -operator file format: one principal
// S-expression.
func writePrincipal(t *testing.T, dir, name string, p principal.Principal) string {
	t.Helper()
	path := filepath.Join(dir, name+".prin")
	if err := os.WriteFile(path, p.Sexp().Advanced(), 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

// up boots a daemon and shuts it down when the test ends.
func up(t *testing.T, start func([]string) (*Node, error), args ...string) *Node {
	t.Helper()
	n, err := start(args)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Shutdown)
	return n
}

// scrape fetches a daemon's /metrics exposition.
func scrape(t *testing.T, n *Node) string {
	t.Helper()
	resp, err := http.Get("http://" + n.AdminAddr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// golden compares got with testdata/name; the golden files were taken
// from the commands before their boots moved into this package.
func golden(t *testing.T, name, got string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s drifted:\n--- got\n%s--- want\n%s", name, got, want)
	}
}

// entryPoints are the five daemons' entry points, which their mains
// hand to Main.
var entryPoints = map[string]func([]string) (*Node, error){
	"sf-certd":    Certd,
	"sf-dbserver": DBServer,
	"sf-gateway":  Gateway,
	"sf-proxy":    Proxy,
	"sf-webfs":    WebFS,
}

// TestMain runs one entry point, with the child's arguments, when the
// test binary is started by child: -h and the one-shot modes exit the
// process or write to its standard output.
func TestMain(m *testing.M) {
	if name := os.Getenv("SF_DAEMON_CHILD"); name != "" {
		if _, err := entryPoints[name](os.Args[1:]); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// child runs a daemon's entry point on args in a copy of the test
// binary and returns what it wrote.
func child(t *testing.T, name string, args ...string) (stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "SF_DAEMON_CHILD="+name)
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %q: %v\n%s", name, args, err, errOut.String())
	}
	return out.String(), errOut.String()
}

// TestFlagDefaultsGolden pins every daemon's flag names, defaults and
// help text: -h prints "Usage of <daemon>:" and then PrintDefaults,
// which must match byte for byte, and exits 0.
func TestFlagDefaultsGolden(t *testing.T) {
	for name := range entryPoints {
		_, stderr := child(t, name, "-h")
		usage, defaults, _ := strings.Cut(stderr, "\n")
		if usage != "Usage of "+name+":" {
			t.Errorf("%s -h opens with %q", name, usage)
		}
		golden(t, name+".flags", defaults)
	}
}

// TestMetricNamesGolden boots each daemon with every optional
// collector enabled and pins the metric names and types its /metrics
// exposes.
func TestMetricNamesGolden(t *testing.T) {
	keys, data := t.TempDir(), t.TempDir()
	ctlKey, op := writeKey(t, keys, "golden-operator")
	opFile := writePrincipal(t, keys, "operator", principal.KeyOf(op.Public()))
	dbKey, db := writeKey(t, keys, "golden-db")
	gwKey, _ := writeKey(t, keys, "golden-gateway")
	ownerKey, _ := writeKey(t, keys, "golden-owner")
	local := []string{"-addr", "127.0.0.1:0", "-admin-addr", "127.0.0.1:0"}

	// Port 1 refuses: the replicator and the CRL follower exist (and
	// export their counters) without a live peer.
	dir := up(t, Certd, append(local, "-data-dir", data, "-peer", "http://127.0.0.1:1", "-gossip", "0",
		"-admin-auth", "-operator", opFile, "-ctl-key", ctlKey)...)
	dbs := up(t, DBServer,
		append(local, "-key", dbKey, "-crl-follow", "http://127.0.0.1:1")...)
	gw := up(t, Gateway, append(local, "-key", gwKey, "-db", dbs.Addr,
		"-db-issuer", string(principal.KeyOf(db.Public()).Sexp().Advanced()))...)
	px := up(t, Proxy, local...)
	fs := up(t, WebFS,
		append(local, "-owner-key", ownerKey, "-root", t.TempDir())...)

	for name, n := range map[string]*Node{"sf-certd": dir, "sf-dbserver": dbs, "sf-gateway": gw, "sf-proxy": px, "sf-webfs": fs} {
		var types []string
		for _, line := range strings.Split(scrape(t, n), "\n") {
			if typ, ok := strings.CutPrefix(line, "# TYPE "); ok {
				types = append(types, typ+"\n")
			}
		}
		sort.Strings(types)
		golden(t, name+".metrics", strings.Join(types, ""))
	}
}

// refusal is one flag combination a daemon must refuse at boot.
type refusal struct {
	args []string
	flag string // the error must name it
}

// checkRefusals boots each row with an audit log inside data and
// asserts the error names the flag and nothing was written to data:
// every check runs before any file, log, listener or dial is opened.
func checkRefusals(t *testing.T, start func([]string) (*Node, error), data string, withAudit bool, rows []refusal) {
	t.Helper()
	for _, r := range rows {
		// A daemon that wrongly boots binds a free port, not its default.
		args := append(r.args, "-addr", "127.0.0.1:0")
		if withAudit {
			args = append(args, "-audit-log", filepath.Join(data, "audit.jsonl"))
		}
		n, err := start(args)
		if err == nil {
			if n != nil {
				n.Shutdown()
			}
			t.Errorf("%q: booted, want a refusal naming %s", args, r.flag)
			continue
		}
		if !strings.Contains(err.Error(), r.flag) {
			t.Errorf("%q: error %q does not name %s", args, err, r.flag)
		}
		if ents, err := os.ReadDir(data); err != nil || len(ents) > 0 {
			t.Fatalf("%q: data directory holds %d entries (%v), want none", args, len(ents), err)
		}
	}
}

func TestCertdRefusals(t *testing.T) {
	keys, data := t.TempDir(), t.TempDir()
	ctlKey, op := writeKey(t, keys, "refuse-operator")
	opFile := writePrincipal(t, keys, "operator", principal.KeyOf(op.Public()))
	checkRefusals(t, Certd, data, true, []refusal{
		{[]string{"-data-dir", data, "-fsync", "interval", "-fsync-every", "0"}, "-fsync-every"},
		{[]string{"-data-dir", data, "-fsync", "interval", "-fsync-every", "-1s"}, "-fsync-every"},
		{[]string{"-data-dir", data, "-fsync", "sometimes"}, "-fsync"},
		{[]string{"-snapshot-every", "1s"}, "-snapshot-every"},
		{[]string{"-data-dir", data, "-ctl-cert", filepath.Join(keys, "ctl.cert")}, "-ctl-cert"},
		{[]string{"-data-dir", data, "-ctl-key", ctlKey}, "-ctl-key"},
		{[]string{"-data-dir", data, "-admin-auth"}, "-admin-auth"},
		{[]string{"-data-dir", data, "-admin-auth", "-operator", opFile, "-peer", "http://127.0.0.1:1"}, "-ctl-key"},
		{[]string{"-data-dir", data, "-log-format", "xml"}, "-log-format"},
	})
}

func TestDBServerRefusals(t *testing.T) {
	keys, data := t.TempDir(), t.TempDir()
	key, _ := writeKey(t, keys, "refuse-db")
	checkRefusals(t, DBServer, data, true, []refusal{
		{[]string{}, "-key"},
		{[]string{"-key", key, "-admin-auth"}, "-operator"},
		{[]string{"-key", key, "-grant-owner", "alice"}, "-grant-to"},
		{[]string{"-key", key, "-grant-owner", "alice", "-grant-to", "(not a principal"}, "-grant-to"},
		{[]string{"-key", key, "-log-format", "xml"}, "-log-format"},
	})
}

func TestGatewayRefusals(t *testing.T) {
	keys, data := t.TempDir(), t.TempDir()
	key, db := writeKey(t, keys, "refuse-gateway")
	issuer := string(principal.KeyOf(db.Public()).Sexp().Advanced())
	checkRefusals(t, Gateway, data, true, []refusal{
		{[]string{"-db-issuer", issuer}, "-key"},
		{[]string{"-key", key}, "-db-issuer"},
		{[]string{"-key", key, "-db-issuer", "(not a principal"}, "-db-issuer"},
		{[]string{"-key", key, "-db-issuer", issuer, "-log-format", "xml"}, "-log-format"},
	})
}

func TestWebFSRefusals(t *testing.T) {
	keys, data := t.TempDir(), t.TempDir()
	key, _ := writeKey(t, keys, "refuse-owner")
	checkRefusals(t, WebFS, data, true, []refusal{
		{[]string{}, "-owner-key"},
		{[]string{"-owner-key", key, "-share-prefix", "/pub/"}, "-share-to"},
		{[]string{"-owner-key", key, "-share-prefix", "/pub/", "-share-to", "(not a principal"}, "-share-to"},
		{[]string{"-owner-key", key, "-log-format", "xml"}, "-log-format"},
	})
}

func TestProxyRefusals(t *testing.T) {
	checkRefusals(t, Proxy, t.TempDir(), false, []refusal{
		{[]string{"-log-format", "xml"}, "-log-format"},
	})
}

// TestOneShotDelegationsVerify: sf-dbserver -grant-owner and sf-webfs
// -share-prefix print one delegation, from the key file's principal
// to the recipient, that verifies, and exit without starting a daemon.
func TestOneShotDelegationsVerify(t *testing.T) {
	keys := t.TempDir()
	dbKey, db := writeKey(t, keys, "oneshot-db")
	ownerKey, owner := writeKey(t, keys, "oneshot-owner")
	recipient := principal.KeyOf(sfkey.FromSeed([]byte("oneshot-recipient")).Public())
	to := string(recipient.Sexp().Advanced())

	for _, row := range []struct {
		name   string
		args   []string
		issuer principal.Principal
	}{
		{"sf-dbserver", []string{"-key", dbKey, "-grant-owner", "alice", "-grant-to", to}, principal.KeyOf(db.Public())},
		{"sf-webfs", []string{"-owner-key", ownerKey, "-share-prefix", "/pub/", "-share-to", to}, principal.HashOfKey(owner.Public())},
	} {
		out, _ := child(t, row.name, row.args...)
		proof, err := core.ParseProof([]byte(strings.TrimSpace(out)))
		if err != nil {
			t.Fatalf("%s: output %q: %v", row.name, out, err)
		}
		ctx := core.NewVerifyContext()
		ctx.Now = time.Now()
		if err := cert.VerifyChain(ctx, proof); err != nil {
			t.Errorf("%s: printed delegation does not verify: %v", row.name, err)
		}
		c := proof.Conclusion()
		if !principal.Equal(c.Issuer, row.issuer) || !principal.Equal(c.Subject, recipient) {
			t.Errorf("%s: delegation %s, want %s => %s", row.name, c, recipient, row.issuer)
		}
	}
}

// TestMeshBoot boots three daemons the way an operator does: sf-certd,
// then sf-dbserver following its CRLs, then sf-gateway discovering
// chains in it. A CRL installed at the directory reaches the
// database's sf_crls gauge, and an unauthenticated request at the
// gateway is challenged in the database issuer's name. Shutting the
// three down takes well under a second: the gateway's subscription
// and the database's follower cancel the polls they hold at the
// directory, so the directory has nothing left to drain.
func TestMeshBoot(t *testing.T) {
	keys, data := t.TempDir(), t.TempDir()
	dbKey, db := writeKey(t, keys, "mesh-db")
	gwKey, _ := writeKey(t, keys, "mesh-gateway")
	issuer := principal.KeyOf(db.Public())

	dir := up(t, Certd, "-addr", "127.0.0.1:0", "-data-dir", data)
	dirURL := "http://" + dir.Addr
	dbs := up(t, DBServer,
		"-key", dbKey, "-addr", "127.0.0.1:0", "-admin-addr", "127.0.0.1:0",
		"-crl-follow", dirURL)
	gw := up(t, Gateway, "-key", gwKey, "-db", dbs.Addr, "-db-issuer", string(issuer.Sexp().Advanced()),
		"-addr", "127.0.0.1:0", "-certdir", dirURL)

	v := core.Between(time.Now().Add(-time.Minute), time.Now().Add(time.Hour))
	if err := certdir.NewClient(dirURL).PushCRL(cert.NewRevocationList(db, v, []byte("mesh-revoked-cert"))); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for !hasSample(scrape(t, dbs), "sf_crls 1") {
		if time.Now().After(deadline) {
			t.Fatalf("the directory's CRL never reached the database:\n%s", scrape(t, dbs))
		}
		time.Sleep(20 * time.Millisecond)
	}

	resp, err := http.Get("http://" + gw.Addr + "/mail?owner=alice&folder=inbox")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("GET /mail without a proof: status %d, want 401", resp.StatusCode)
	}
	if got, want := resp.Header.Get(httpauth.HdrServiceIssuer), string(issuer.Sexp().Transport()); got != want {
		t.Fatalf("challenge names issuer %q, want the database's %q", got, want)
	}

	start := time.Now()
	for _, n := range []*Node{gw, dbs, dir} {
		n.Shutdown()
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("shutting down the mesh took %s, want well under 1s", d)
	}
}

// TestCertdShutdownEndsHeldPolls: a directory that begins to stop
// answers the polls its followers hold at once, so its drain does not
// wait out a follower's 30 s hold (the runtime would otherwise cut the
// drain at its 5 s timeout).
func TestCertdShutdownEndsHeldPolls(t *testing.T) {
	dir := up(t, Certd, "-addr", "127.0.0.1:0")
	wrote := make(chan struct{})
	ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		WroteRequest: func(httptrace.WroteRequestInfo) { close(wrote) },
	})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+dir.Addr+certdir.PathEvents,
		strings.NewReader("(events 0 (wait 30000) (kinds crl))"))
	if err != nil {
		t.Fatal(err)
	}
	answered := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			_, err = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
		answered <- err
	}()
	<-wrote // the directory serves the poll, even once its drain begins
	start := time.Now()
	dir.Shutdown()
	if d := time.Since(start); d > time.Second {
		t.Fatalf("shutdown waited %s for a held poll", d)
	}
	if err := <-answered; err != nil {
		t.Fatalf("the held poll was cut instead of answered: %v", err)
	}
}

// hasSample reports whether a /metrics exposition holds the sample
// line.
func hasSample(exposition, sample string) bool {
	sc := bufio.NewScanner(strings.NewReader(exposition))
	for sc.Scan() {
		if sc.Text() == sample {
			return true
		}
	}
	return false
}
