// Command sf-dbserver runs the protected relational email database of
// paper section 6.2 as an RMI service over the secure channel.
// Delegations of mailbox authority are issued with -grant-owner.
//
// Usage:
//
//	sf-dbserver -key db.key -addr 127.0.0.1:7001
//	sf-dbserver -key db.key -addr 127.0.0.1:7001 -crl revoked.crl -admin-addr 127.0.0.1:7002
//	sf-dbserver -key db.key -admin-addr 127.0.0.1:7002 -admin-auth -operator operator.prin
//	sf-dbserver -key db.key -grant-owner alice -grant-to '<principal sexp>'
//
// The -crl file (same format as sf-certd's: CRL S-expressions, one
// per line or concatenated) is re-read without a restart on SIGHUP or
// via POST /certdir/admin/reload on the -admin-addr listener;
// individual CRLs can also be installed live via POST
// /certdir/admin/crl. These are the directory's admin pair, served by
// the same certdir handler with the same replies, so certdir.Client
// drives both daemons. Every install bumps the proof-cache epoch, so
// revocation bites on the next RMI call, not the next restart. With
// -admin-auth (which requires -operator) the admin endpoints demand a
// speaks-for proof for the -operator principal regarding (sf-ctl
// admin) — the same machinery the database itself enforces on
// mailboxes. The admin listener also serves /metrics.
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"repro/internal/cert"
	"repro/internal/certdir"
	"repro/internal/channel/secure"
	"repro/internal/core"
	"repro/internal/emaildb"
	"repro/internal/httpauth"
	"repro/internal/principal"
	"repro/internal/rmi"
	"repro/internal/server"
	"repro/internal/sfkey"
)

func main() {
	keyFile := flag.String("key", "", "server private key file")
	addr := flag.String("addr", "127.0.0.1:7001", "listen address")
	grantOwner := flag.String("grant-owner", "", "emit a mailbox delegation and exit")
	grantTo := flag.String("grant-to", "", "recipient principal S-expression")
	grantTTL := flag.Duration("grant-ttl", 0, "delegation lifetime (0 = unbounded)")
	seedDemo := flag.Bool("seed-demo", false, "insert demonstration messages")
	crlFile := flag.String("crl", "", "file of CRL S-expressions (one per line or concatenated)")
	crlFollow := flag.String("crl-follow", "", "comma-separated certdir base URLs to pull CRLs from")
	crlFollowEvery := flag.Duration("crl-follow-every", certdir.DefaultGossipInterval, "CRL pull interval for -crl-follow")
	adminAddr := flag.String("admin-addr", "", "revocation admin + metrics HTTP listen address (empty = disabled)")
	adminAuth := flag.Bool("admin-auth", false, "require speaks-for proofs on the admin endpoints")
	operatorFile := flag.String("operator", "", "file holding the operator principal S-expression (required with -admin-auth)")
	crlSweep := flag.Duration("crl-sweep", time.Minute, "lapsed-CRL sweep interval (0 disables)")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	obsFlags := server.RegisterObsFlags()
	flag.Parse()

	if *keyFile == "" {
		log.Fatal("sf-dbserver: -key is required")
	}
	if *adminAuth && *operatorFile == "" {
		log.Fatal("sf-dbserver: -admin-auth requires -operator")
	}
	priv, err := sfkey.LoadPrivateKeyFile(*keyFile)
	if err != nil {
		log.Fatalf("sf-dbserver: %v", err)
	}
	issuer := principal.KeyOf(priv.Public())

	if *grantOwner != "" {
		if *grantTo == "" {
			log.Fatal("sf-dbserver: -grant-owner needs -grant-to")
		}
		recipient, err := principal.Parse(*grantTo)
		if err != nil {
			log.Fatalf("sf-dbserver: recipient: %v", err)
		}
		v := core.Forever
		if *grantTTL > 0 {
			v = core.Until(time.Now().Add(*grantTTL))
		}
		c, err := cert.Delegate(priv, recipient, issuer, emaildb.OwnerTag(*grantOwner), v)
		if err != nil {
			log.Fatalf("sf-dbserver: %v", err)
		}
		fmt.Println(string(c.Sexp().Transport()))
		return
	}

	rt := server.New("sf-dbserver")
	if rt.Logger, err = server.NewLogger(*logFormat); err != nil {
		log.Fatalf("sf-dbserver: %v", err)
	}
	if err := obsFlags.Wire(rt); err != nil {
		log.Fatalf("sf-dbserver: audit log: %v", err)
	}

	svc, err := emaildb.NewService()
	if err != nil {
		log.Fatalf("sf-dbserver: %v", err)
	}
	if *seedDemo {
		seed := []emaildb.Message{
			{Owner: "alice", Folder: "inbox", From: "bob@example.org", To: "alice", Subject: "lunch?", Date: time.Now().Add(-2 * time.Hour)},
			{Owner: "alice", Folder: "inbox", From: "carol@example.org", To: "alice", Subject: "budget draft", Date: time.Now().Add(-time.Hour)},
			{Owner: "bob", Folder: "inbox", From: "alice@example.org", To: "bob", Subject: "re: lunch?", Date: time.Now()},
		}
		for _, m := range seed {
			var r emaildb.InsertReply
			if err := svc.Insert(emaildb.InsertArgs{Msg: m}, &r); err != nil {
				log.Fatalf("sf-dbserver: seed: %v", err)
			}
		}
	}
	srv := rmi.NewServer()
	srv.Obs = rt.Tracer()
	srv.Audit = rt.Audit()
	rs := cert.NewRevocationStore()
	rt.Every(*crlSweep, func() {
		if n := rs.Sweep(time.Now()); n > 0 {
			rt.Printf("swept %d lapsed CRLs", n)
		}
	})

	// Every CRL — from the -crl file, SIGHUP, or the admin endpoint —
	// installs through this one function. A pure verifier installs
	// with no store and no peers: installing into rs already bumps the
	// proof-cache epoch, so every cached verdict resting on a revoked
	// certificate dies and the next RMI call re-verifies.
	install := func(lists []*cert.RevocationList) (int, int, error) {
		res := certdir.InstallCRLs(rs, nil, nil, lists, time.Now())
		return res.Installed, res.Evicted, res.Err
	}
	// The -crl wiring (initial load, SIGHUP reload, admin reload
	// endpoint) comes from the shared runtime.
	var reload func() (added, total, evicted int, err error)
	if *crlFile != "" {
		if reload, err = rt.WireCRLFile(*crlFile, install); err != nil {
			log.Fatalf("sf-dbserver: crl: %v", err)
		}
	}

	// -crl-follow closes the operator-in-the-loop gap: instead of (or
	// in addition to) CRLs arriving by file and admin endpoint, the
	// database pulls them from the certificate directories on the
	// runtime ticker, so a revocation published anywhere in the mesh
	// bites here within one gossip round plus one pull interval.
	var followers []*certdir.CRLFollower
	if *crlFollow != "" {
		for _, u := range strings.Split(*crlFollow, ",") {
			u = strings.TrimSpace(u)
			if u == "" {
				continue
			}
			f := certdir.NewCRLFollower(certdir.NewClient(u), rs)
			f.OnError = func(err error) { rt.Printf("crl-follow %s: %v", u, err) }
			followers = append(followers, f)
			rt.Every(*crlFollowEvery, func() {
				if n, err := f.Pull(); err == nil && n > 0 {
					rt.Printf("crl-follow: installed %d CRLs from %s", n, u)
				}
			})
		}
		rt.Printf("following CRLs from %d directories every %s", len(followers), *crlFollowEvery)
	}

	rt.Metrics().Register(server.ProofCacheCollector(core.SharedProofCache()))
	rt.Metrics().Register(func(emit func(server.Metric)) {
		emit(server.Gauge("sf_crls", "Revocation lists installed.", float64(len(rs.Lists()))))
		if len(followers) > 0 {
			var pulled, rejected float64
			for _, f := range followers {
				fs := f.Stats()
				pulled += float64(fs.Pulled)
				rejected += float64(fs.Rejected)
			}
			emit(server.Counter("sf_crl_follow_pulled_total", "CRLs installed via -crl-follow.", pulled))
			emit(server.Counter("sf_crl_follow_rejected_total", "CRLs refused via -crl-follow (bad signature).", rejected))
		}
		st := srv.Stats()
		emit(server.Counter("sf_rmi_calls_total", "RMI calls dispatched.", float64(st.Calls)))
		emit(server.Counter("sf_rmi_auth_checks_total", "RMI authorization checks.", float64(st.AuthChecks)))
		emit(server.Counter("sf_rmi_auth_failures_total", "RMI calls denied authorization.", float64(st.AuthFailures)))
	})

	var guard *httpauth.CtlGuard
	if *adminAuth {
		operator, err := server.LoadPrincipalFile(*operatorFile)
		if err != nil {
			log.Fatalf("sf-dbserver: operator principal: %v", err)
		}
		guard = httpauth.NewCtlGuard(operator, rs)
		guard.Audit = rt.Audit()
		rt.Printf("admin surface enforcing: callers must speak for %s", operator)
	}
	if *adminAddr != "" {
		// The directory's CRL admin pair, bound to this daemon's install
		// and reload: same paths, same replies, same certdir.Client.
		admin := certdir.AdminHandler(install, reload, guard, rt.Latencies().CRLInstall)
		mux := rt.AdminMux()
		mux.Handle(certdir.PathAdminCRL, admin)
		mux.Handle(certdir.PathReload, admin)
		if _, err := rt.ServeAdmin(*adminAddr); err != nil {
			log.Fatalf("sf-dbserver: %v", err)
		}
	}

	if err := emaildb.RegisterWithRevocation(srv, svc, issuer, rs); err != nil {
		log.Fatalf("sf-dbserver: %v", err)
	}
	l, err := secure.Listen(*addr, &secure.Identity{Priv: priv})
	if err != nil {
		log.Fatalf("sf-dbserver: %v", err)
	}
	// The runtime owns the RMI lifecycle: at shutdown the listener
	// closes first, then in-flight dispatches drain (bounded by
	// ShutdownTimeout) before the channels are torn down — a client
	// mid-call sees its reply, not a reset.
	rt.ServeRMI(l, srv)
	rt.Printf("%s listening on %s (issuer %s)", emaildb.ObjectName, l.Addr(), issuer)
	if err := rt.Wait(); err != nil {
		log.Fatalf("sf-dbserver: %v", err)
	}
}
