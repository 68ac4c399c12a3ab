// Certdir: end-to-end authorization across machines through
// replicated, durable certificate directories — with the control
// plane itself guarded by the same speaks-for machinery. Both
// directories enforce an OPERATOR principal: publishes, removals, and
// admin calls must prove "this request speaks for the operator
// regarding (sf-ctl publish|admin)", and the one write a directory
// makes at its peer — an anti-entropy removal repair — is signed with
// a delegated daemon credential. A gateway on "host B" publishes a
// delegation chain to its own domain's directory A; directory B
// follows A's record stream, which makes the chain visible there; a
// user key on "host A" — whose prover has never seen any
// of those delegations and only knows directory B — discovers the
// chain over HTTP, assembles the proof, and the gateway verifies it.
// Directory A is then restarted and recovers its contents from its
// write-ahead log, pulling anything it missed while down from its
// peer. Finally the team revokes the user's delegation LIVE — a CRL
// installed through directory B's AUTHENTICATED admin endpoint, by a
// team holding an operator-delegated (sf-ctl admin) credential — and
// as soon as the directories' follows carry it the revocation has
// evicted at both directories and the user's prover, subscribed to
// its directory's invalidation stream, can no longer prove the chain.
//
// Run: go run ./examples/certdir
package main

import (
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/cert"
	"repro/internal/certdir"
	"repro/internal/core"
	"repro/internal/httpauth"
	"repro/internal/principal"
	"repro/internal/prover"
	"repro/internal/sfkey"
	"repro/internal/tag"
)

func main() {
	now := time.Now()
	valid := core.Between(now.Add(-time.Minute), now.Add(time.Hour))
	files := tag.Prefix("gateway/files")

	// 0. The operator of both directory domains, and the daemon/client
	// credentials it mints. Control-plane authority is delegated with
	// ordinary certificates: daemons get both operation classes (their
	// removal repairs are removes at the peer, a publish-class
	// operation), the registrar gets publish only, the team gets admin
	// only.
	operator := genKey("operator")
	dirAKey := genKey("dirA-daemon")
	dirBKey := genKey("dirB-daemon")
	registrar := genKey("registrar")
	mustCred := func(to identity, ops ...string) *cert.Cert {
		c, err := cert.DelegateCtl(operator.priv, to.prin, time.Hour, ops...)
		check(err)
		return c
	}
	credA := mustCred(dirAKey)
	credB := mustCred(dirBKey)
	credPub := mustCred(registrar, cert.CtlPublish)

	// Both directory daemons (what sf-certd -admin-auth runs), one
	// per administrative domain, here in-process on loopback ports.
	// Directory A is durable: its write-ahead log lives in dataDir.
	dataDir, err := os.MkdirTemp("", "certdir-demo-")
	check(err)
	defer os.RemoveAll(dataDir)

	storeA, _, err := certdir.OpenDurable(dataDir, 0, certdir.SyncAlways, now)
	check(err)
	storeB := certdir.NewStore(0)

	svcA, urlA, stopA := serve(storeA, operator.prin)
	svcB, urlB, stopB := serve(storeB, operator.prin)
	defer stopB()

	// signed builds a client whose mutating requests carry speaks-for
	// proofs minted from key + credential (what -ctl-key/-ctl-cert do).
	signed := func(url string, key *sfkey.PrivateKey, chain ...*cert.Cert) *certdir.Client {
		c := certdir.NewClient(url)
		c.Ctl = httpauth.NewCtlSigner(prover.NewKeyClosure(key), operator.prin, chain...)
		return c
	}

	// Each domain's directory follows the other's record stream —
	// publishes, removals and CRLs, applied as they happen — and
	// anti-entropy rounds repair anything a follow missed, signing the
	// removal repairs they push with the daemon credential.
	repA := certdir.NewReplicator(storeA, []*certdir.Client{signed(urlB, dirAKey.priv, credA)})
	repA.Revocations = svcA.Revocations
	repB := certdir.NewReplicator(storeB, []*certdir.Client{signed(urlA, dirBKey.priv, credB)})
	repB.Revocations = svcB.Revocations
	repA.Start()
	repB.Start()
	defer repB.Stop()
	svcA.Replicator = repA
	svcB.Replicator = repB
	fmt.Printf("directory A (domain alpha, durable) at %s\n", urlA)
	fmt.Printf("directory B (domain beta)           at %s\n", urlB)
	fmt.Printf("both enforce -admin-auth: callers must speak for the operator\n\n")

	// 0b. The closed control plane, demonstrated: an unauthenticated
	// publish bounces with a 401 challenge before any state changes.
	unsigned := certdir.NewClient(urlA)
	gateway := genKey("gateway")
	dept := genKey("department")
	team := genKey("team")
	user := genKey("user")
	probe, err := cert.Delegate(gateway.priv, dept.prin, gateway.prin, files, valid)
	check(err)
	if err := unsigned.Publish(probe); err != nil {
		fmt.Printf("unauthenticated publish refused: 401 operator proof required\n\n")
	} else {
		log.Fatal("open publish on a guarded directory")
	}

	// 1. Domain alpha: the gateway's organization. Authority flows
	// gateway -> department -> team -> user, and every delegation is
	// published to the organization's OWN directory only — by the
	// registrar, whose publish-only credential the guard accepts.
	pub := signed(urlA, registrar.priv, credPub)
	var chain []*cert.Cert
	for _, d := range []struct {
		from *sfkey.PrivateKey
		to   principal.Principal
		desc string
	}{
		{gateway.priv, dept.prin, "gateway delegates files to department"},
		{dept.priv, team.prin, "department delegates files to team"},
		{team.priv, user.prin, "team delegates files to user"},
	} {
		c, err := cert.Delegate(d.from, d.to, principal.KeyOf(d.from.Public()), files, valid)
		check(err)
		check(pub.Publish(c))
		chain = append(chain, c)
		fmt.Printf("published to A (signed by registrar): %s\n", d.desc)
	}

	// 2. Replication: B's held poll on A's record stream answers with
	// each publish as it happens, so the chain is in directory B too,
	// server-side — no client had to merge anything. B verifies every
	// certificate it takes; following needs no credential.
	waitFor("replication A -> B", func() bool { return storeB.Len() == 3 })
	fmt.Printf("\ndirectory B now stores %d certs (followed from A's record stream)\n", storeB.Len())

	// 3. Domain beta: the user's prover. Its local delegation graph is
	// empty and it has never heard of directory A. Besides querying
	// directory B it subscribes to B's invalidation stream, so
	// certificates B stops vouching for are dropped from the prover's
	// cache instead of lingering until expiry. Queries and events are
	// read-only: no credential needed.
	p := prover.New()
	clientB := certdir.NewClient(urlB)
	p.AddRemote(clientB)
	sub := p.SubscribeWait(clientB, core.SharedProofCache(), 0)
	defer sub.Stop()
	fmt.Printf("prover starts with %d local edges, knows only directory B\n", p.EdgeCount())

	proof, err := p.FindProof(user.prin, gateway.prin, files, now)
	check(err)
	st := p.Stats()
	fmt.Printf("proof discovered: %s\n", proof.Conclusion())
	fmt.Printf("  %d directory queries, %d certificates fetched\n",
		st.RemoteQueries, st.RemoteCerts)

	// 4. The gateway verifies the proof; the directories are pure
	// mechanism and appear nowhere in the trust computation.
	ctx := core.NewVerifyContext()
	ctx.Now = now
	check(core.Authorize(ctx, proof, user.prin, gateway.prin, files))
	fmt.Println("gateway verdict: authorized")

	// 5. Crash and restart directory A. While it is down, a fourth
	// delegation lands at B only (signed by the registrar, whose
	// credential both domains' guards accept — one operator, one
	// credential system).
	repA.Stop()
	stopA()
	check(storeA.CloseWAL())
	fmt.Println("\ndirectory A stopped (process gone, WAL on disk)")

	intern := genKey("intern")
	c, err := cert.Delegate(user.priv, intern.prin, user.prin, files, valid)
	check(err)
	check(signed(urlB, registrar.priv, credPub).Publish(c))
	fmt.Println("published to B while A is down: user delegates files to intern")

	storeA2, rec, err := certdir.OpenDurable(dataDir, 0, certdir.SyncAlways, time.Now())
	check(err)
	fmt.Printf("directory A restarted: %d WAL records replayed, %d certs live again\n",
		rec.Replayed, storeA2.Len())

	// 6. One anti-entropy round pulls what A missed while down.
	repA2 := certdir.NewReplicator(storeA2, []*certdir.Client{signed(urlB, dirAKey.priv, credA)})
	repA2.Revocations = cert.NewRevocationStore()
	pulled, err := repA2.Converge()
	check(err)
	fmt.Printf("anti-entropy round pulled %d cert(s); A now stores %d\n", pulled, storeA2.Len())

	// 7. Live revocation, end to end — through the AUTHENTICATED admin
	// surface. The team retracts the user's delegation: a signed CRL
	// installed at directory B's admin endpoint by the team, whose
	// (sf-ctl admin) credential the operator delegated. B checks the
	// speaks-for proof (proof cache fast path), verifies the CRL,
	// evicts the delegation immediately (tombstoned against gossip
	// resurrection), bumps the shared proof-cache epoch, and emits an
	// invalidation event; the user's subscribed prover drops its
	// cached chain. Directory A's restarted replicator follows B from
	// the start of B's stream, whose first answer carries every list B
	// holds, and evicts too.
	credAdmin := mustCred(team, cert.CtlAdmin)
	teamAdmin := signed(urlB, team.priv, credAdmin)
	teamToUser := chain[2]
	crl := cert.NewRevocationList(team.priv, valid, teamToUser.Hash())
	if err := certdir.NewClient(urlB).PushCRL(crl); err == nil {
		log.Fatal("unauthenticated CRL install accepted")
	}
	fmt.Printf("\nunauthenticated CRL install refused; retrying with the team's admin credential\n")
	check(teamAdmin.PushCRL(crl))
	fmt.Printf("CRL installed at B (authenticated): team revokes 'user speaks for team'\n")
	fmt.Printf("directory B now stores %d certs (revoked delegation evicted)\n", storeB.Len())

	waitFor("prover invalidation via event stream", func() bool {
		_, err := p.FindProof(user.prin, gateway.prin, files, time.Now())
		return err != nil
	})
	st = p.Stats()
	fmt.Printf("prover can no longer prove the chain (%d cached edges invalidated)\n", st.Invalidated)

	before := storeA2.Len()
	repA2.Start()
	defer repA2.Stop()
	waitFor("CRL followed B -> A", func() bool { return repA2.Stats().CRLsPulled == 1 })
	fmt.Printf("directory A followed %d CRL(s) from B and now stores %d certs (was %d)\n",
		repA2.Stats().CRLsPulled, storeA2.Len(), before)
}

// serve exposes a store on a loopback port with the revocation
// endpoints enabled and the control plane guarded by the operator
// principal (what sf-certd -admin-auth -operator wires), returning
// its service, base URL, and a closer.
func serve(st *certdir.Store, operator principal.Principal) (svc *certdir.Service, url string, stop func()) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	check(err)
	svc = certdir.NewService(st)
	svc.Revocations = cert.NewRevocationStore()
	svc.Guard = httpauth.NewCtlGuard(operator, svc.Revocations)
	srv := &http.Server{Handler: svc}
	go srv.Serve(ln)
	return svc, "http://" + ln.Addr().String(), func() { srv.Close() }
}

// waitFor polls cond (replication is asynchronous) with a
// generous deadline.
func waitFor(what string, cond func() bool) {
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			log.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

type identity struct {
	priv *sfkey.PrivateKey
	prin principal.Principal
}

func genKey(name string) identity {
	priv, err := sfkey.Generate()
	check(err)
	id := identity{priv: priv, prin: principal.KeyOf(priv.Public())}
	fmt.Printf("key %-12s %s\n", name, id.prin)
	return id
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
