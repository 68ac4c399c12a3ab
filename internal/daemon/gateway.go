package daemon

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/certdir"
	"repro/internal/channel/secure"
	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/obs"
	"repro/internal/principal"
	"repro/internal/prover"
	"repro/internal/rmi"
	"repro/internal/server"
	"repro/internal/sfkey"
)

// Gateway boots sf-gateway, the quoting gateway in front of
// sf-dbserver, from its argument list.
func Gateway(args []string) (n *Node, err error) {
	b, fs := newBoot("sf-gateway", true)
	defer b.finish(&err)
	keyFile := fs.String("key", "", "gateway private key file")
	dbAddr := fs.String("db", "127.0.0.1:7001", "database server address")
	dbIssuerS := fs.String("db-issuer", "", "database issuer principal S-expression")
	addr := fs.String("addr", "127.0.0.1:8081", "HTTP listen address")
	adminAddr := fs.String("admin-addr", "", "admin/metrics HTTP listen address (empty = disabled)")
	certdirURL := fs.String("certdir", "", "certificate directory base URL for remote chain discovery (empty = local-only)")
	sweepEvery := fs.Duration("sweep", time.Minute, "prover expired-edge sweep interval (0 disables)")

	fs.Parse(args) // ExitOnError: an unparsable list never returns
	if *keyFile == "" || *dbIssuerS == "" {
		return nil, errors.New("-key and -db-issuer are required")
	}
	dbIssuer, err := principal.Parse(*dbIssuerS)
	if err != nil {
		return nil, fmt.Errorf("-db-issuer: %w", err)
	}
	priv, err := sfkey.LoadPrivateKeyFile(*keyFile)
	if err != nil {
		return nil, err
	}
	rt, err := b.start()
	if err != nil {
		return nil, err
	}

	pv := gateway.NewProver(priv)
	// Directory lookups the prover makes mid-admit are the expensive
	// leg of a cold admit; time them under their own histogram.
	pv.RemoteHist = obs.NewHistogram("sf_prover_remote_seconds", "Prover remote chain-discovery latency per FindProof miss.")
	rt.Metrics().RegisterHistogram(pv.RemoteHist)
	id, err := secure.NewIdentity()
	if err != nil {
		return nil, err
	}
	// The gateway controls its channel identity too, so its prover
	// can link channel key -> gateway key when the database
	// challenges it.
	pv.AddClosure(prover.NewKeyClosure(id.Priv))
	db, err := rmi.Dial(secure.Dialer{ID: id}, *dbAddr, pv)
	if err != nil {
		return nil, fmt.Errorf("dial db: %w", err)
	}
	// With -certdir the prover discovers delegation chains it was
	// never handed and subscribes to the directory's invalidation
	// stream, so a digested client delegation that is later revoked
	// or retracted is dropped from the prover's graph — and its
	// verdict from the shared proof cache — instead of being quoted
	// to the database until it expires.
	if *certdirURL != "" {
		dir := certdir.NewClient(*certdirURL)
		pv.AddRemote(dir)
		sub := pv.SubscribeWait(dir, core.SharedProofCache(), 0)
		rt.OnShutdown(sub.Stop)
		rt.Printf("using certificate directory %s (discovery + invalidation)", *certdirURL)
	}
	// The gateway and its RMI invoker share this long-lived prover,
	// so expired edges are evicted on the clock, not on request
	// count.
	rt.Every(*sweepEvery, func() { pv.Sweep(time.Now()) })
	rt.Metrics().Register(server.ProverCollector(pv))

	gw := gateway.New(priv, db, dbIssuer, pv)
	gw.Obs = rt.Tracer()
	gw.Audit = rt.Audit()
	gw.ColdAdmit, gw.WarmAdmit = rt.Latencies().ColdAdmit, rt.Latencies().WarmAdmit
	rt.Metrics().Register(func(emit func(server.Metric)) {
		st := gw.Stats()
		emit(server.Counter("sf_gateway_requests_total", "HTTP requests received.", float64(st.Requests)))
		emit(server.Counter("sf_gateway_challenges_total", "Challenges issued.", float64(st.Challenges)))
		emit(server.Counter("sf_gateway_digested_total", "Client proofs digested.", float64(st.Digested)))
		emit(server.Counter("sf_gateway_forwarded_total", "Requests forwarded to the database.", float64(st.Forwarded)))
		emit(server.Counter("sf_gateway_denied_total", "Requests denied.", float64(st.Denied)))
	})

	if n, err = b.serve(*addr, gw, *adminAddr); err == nil {
		rt.Printf("bridging %s on %s (gateway key %s)", *dbAddr, n.Addr, priv.Public().Fingerprint())
	}
	return n, err
}
