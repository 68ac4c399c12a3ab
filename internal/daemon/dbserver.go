package daemon

import (
	"errors"
	"fmt"
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

// DBServer boots sf-dbserver, the protected email database, from its
// argument list. With -grant-owner it writes the delegation to stdout
// instead and returns a nil Node.
func DBServer(args []string) (n *Node, err error) {
	b, fs := newBoot("sf-dbserver", true)
	defer b.finish(&err)
	keyFile := fs.String("key", "", "server private key file")
	addr := fs.String("addr", "127.0.0.1:7001", "listen address")
	grantOwner := fs.String("grant-owner", "", "emit a mailbox delegation and exit")
	grantTo := fs.String("grant-to", "", "recipient principal S-expression")
	grantTTL := fs.Duration("grant-ttl", 0, "delegation lifetime (0 = unbounded)")
	seedDemo := fs.Bool("seed-demo", false, "insert demonstration messages")
	crlFile := fs.String("crl", "", "file of CRL S-expressions (one per line or concatenated)")
	crlFollow := fs.String("crl-follow", "", "comma-separated certdir base URLs to pull CRLs from")
	adminAddr := fs.String("admin-addr", "", "revocation admin + metrics HTTP listen address (empty = disabled)")
	adminAuth := fs.Bool("admin-auth", false, "require speaks-for proofs on the admin endpoints")
	operatorFile := fs.String("operator", "", "file holding the operator principal S-expression (required with -admin-auth)")
	crlSweep := fs.Duration("crl-sweep", time.Minute, "lapsed-CRL sweep interval (0 disables)")

	fs.Parse(args) // ExitOnError: an unparsable list never returns
	switch {
	case *keyFile == "":
		return nil, errors.New("-key is required")
	case *adminAuth && *operatorFile == "":
		return nil, errors.New("-admin-auth requires -operator")
	case *grantOwner != "" && *grantTo == "":
		return nil, errors.New("-grant-owner needs -grant-to")
	}
	priv, err := sfkey.LoadPrivateKeyFile(*keyFile)
	if err != nil {
		return nil, err
	}
	issuer := principal.KeyOf(priv.Public())

	if *grantOwner != "" {
		recipient, err := principal.Parse(*grantTo)
		if err != nil {
			return nil, fmt.Errorf("-grant-to: %w", err)
		}
		v := core.Forever
		if *grantTTL > 0 {
			v = core.Until(time.Now().Add(*grantTTL))
		}
		c, err := cert.Delegate(priv, recipient, issuer, emaildb.OwnerTag(*grantOwner), v)
		if err != nil {
			return nil, err
		}
		_, err = fmt.Println(string(c.Sexp().Transport()))
		return nil, err
	}

	rt, err := b.start()
	if err != nil {
		return nil, err
	}
	svc, err := emaildb.NewService()
	if err != nil {
		return nil, err
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
				return nil, fmt.Errorf("seed: %w", err)
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
	// with no store and no peers: installing into rs already bumps
	// the proof-cache epoch, so every cached verdict resting on a
	// revoked certificate dies and the next RMI call re-verifies.
	install := func(lists []*cert.RevocationList) (int, int, error) {
		res := certdir.InstallCRLs(rs, nil, lists, time.Now())
		return res.Installed, res.Evicted, res.Err
	}
	var reload func() (added, total, evicted int, err error)
	if *crlFile != "" {
		if reload, err = rt.WireCRLFile(*crlFile, install); err != nil {
			return nil, fmt.Errorf("crl: %w", err)
		}
	}

	// -crl-follow closes the operator-in-the-loop gap: the database
	// follows the certificate directories' event streams, so a
	// revocation published anywhere in the mesh bites here as soon as
	// a followed directory installs it.
	var followers []*certdir.CRLFollower
	for _, u := range strings.Split(*crlFollow, ",") {
		if u = strings.TrimSpace(u); u == "" {
			continue
		}
		f := certdir.NewCRLFollower(certdir.NewClient(u), rs)
		f.OnError = func(err error) { rt.Printf("crl-follow %s: %v", u, err) }
		f.Start()
		rt.OnShutdown(f.Stop)
		followers = append(followers, f)
	}
	if *crlFollow != "" {
		rt.Printf("following CRLs from %d directories", len(followers))
	}

	rt.Metrics().Register(func(emit func(server.Metric)) {
		emit(server.Gauge("sf_crls", "Revocation lists installed.", float64(len(rs.Lists()))))
		if len(followers) > 0 {
			var pulled, rejected float64
			for _, f := range followers {
				st := f.Stats()
				pulled += float64(st.Pulled)
				rejected += float64(st.Rejected)
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
			return nil, fmt.Errorf("operator principal: %w", err)
		}
		guard = httpauth.NewCtlGuard(operator, rs)
		guard.Audit = rt.Audit()
		rt.Printf("admin surface enforcing: callers must speak for %s", operator)
	}
	// The directory's CRL admin pair, bound to this daemon's install
	// and reload: same paths, same replies, same certdir.Client. The
	// admin mux is served only with -admin-addr.
	admin := certdir.AdminHandler(install, reload, guard, rt.Latencies().CRLInstall)
	rt.AdminMux().Handle(certdir.PathAdminCRL, admin)
	rt.AdminMux().Handle(certdir.PathReload, admin)

	if err := emaildb.RegisterWithRevocation(srv, svc, issuer, rs); err != nil {
		return nil, err
	}
	l, err := secure.Listen(*addr, &secure.Identity{Priv: priv})
	if err != nil {
		return nil, err
	}
	// The runtime owns the RMI lifecycle: at shutdown the listener
	// closes first, then in-flight dispatches drain (bounded by
	// ShutdownTimeout) before the channels are torn down — a client
	// mid-call sees its reply, not a reset.
	rt.ServeRMI(l, srv)
	if n, err = b.node(l.Addr().String(), *adminAddr); err == nil {
		rt.Printf("%s listening on %s (issuer %s)", emaildb.ObjectName, n.Addr, issuer)
	}
	return n, err
}
