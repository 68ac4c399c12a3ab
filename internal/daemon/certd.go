package daemon

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"time"

	"repro/internal/cert"
	"repro/internal/certdir"
	"repro/internal/httpauth"
	"repro/internal/principal"
	"repro/internal/prover"
	"repro/internal/server"
	"repro/internal/sfkey"
)

// Certd boots sf-certd, the certificate directory daemon, from its
// argument list (os.Args[1:] in production).
func Certd(args []string) (n *Node, err error) {
	b, fs := newBoot("sf-certd", true)
	defer b.finish(&err)
	addr := fs.String("addr", "127.0.0.1:8360", "listen address")
	adminAddr := fs.String("admin-addr", "", "admin/metrics HTTP listen address (empty = disabled)")
	shards := fs.Int("shards", certdir.DefaultShards, "store shard count")
	sweep := fs.Duration("sweep", 30*time.Second, "expiry sweep interval (0 disables)")
	crlFile := fs.String("crl", "", "file of CRL S-expressions to enforce")
	dataDir := fs.String("data-dir", "", "directory for the write-ahead log (empty = memory-only)")
	fsync := fs.String("fsync", "always", "WAL fsync policy: always, interval, or never")
	fsyncEvery := fs.Duration("fsync-every", time.Second, "sync period under -fsync interval")
	snapshotEvery := fs.Duration("snapshot-every", 0, "bootstrap snapshot write interval (0 disables; requires -data-dir)")
	var peers []string
	fs.Func("peer", "peer directory base URL (repeatable) to replicate with", func(p string) error {
		peers = append(peers, p)
		return nil
	})
	gossip := fs.Duration("gossip", certdir.DefaultGossipInterval, "anti-entropy round interval (0 disables the rounds; following peers still runs)")
	adminAuth := fs.Bool("admin-auth", false, "require speaks-for proofs on publish/remove/admin endpoints")
	operatorFile := fs.String("operator", "", "file holding the operator principal S-expression (required with -admin-auth)")
	ctlKeyFile := fs.String("ctl-key", "", "private key signing this daemon's anti-entropy removal repairs at its peers (required with -admin-auth and -peer)")
	ctlCertFile := fs.String("ctl-cert", "", "certificate chain file delegating control authority to -ctl-key")

	fs.Parse(args) // ExitOnError: an unparsable list never returns
	// The signer (outbound: authenticates the removal repairs this
	// daemon's anti-entropy pushes to its peers) and the guard
	// (inbound: closes this daemon's own mutating endpoints) are
	// independent: the documented migration
	// runs a mesh signing-but-not-enforcing first, then enables
	// -admin-auth one node at a time, so -ctl-key works without
	// -admin-auth.
	switch {
	case *ctlCertFile != "" && *ctlKeyFile == "":
		return nil, errors.New("-ctl-cert requires -ctl-key (a credential without its key signs nothing)")
	case *ctlKeyFile != "" && *operatorFile == "":
		return nil, errors.New("-ctl-key requires -operator (the principal peers enforce)")
	case *adminAuth && *operatorFile == "":
		return nil, errors.New("-admin-auth requires -operator")
	case *adminAuth && len(peers) > 0 && *ctlKeyFile == "":
		return nil, errors.New("-admin-auth with -peer requires -ctl-key (peers will reject unsigned removal repairs)")
	case *snapshotEvery > 0 && *dataDir == "":
		return nil, errors.New("-snapshot-every requires -data-dir")
	}
	var policy certdir.SyncPolicy
	if *dataDir != "" {
		if policy, err = certdir.ParseSyncPolicy(*fsync); err != nil {
			return nil, fmt.Errorf("-fsync: %w", err)
		}
		if policy == certdir.SyncInterval && *fsyncEvery <= 0 {
			return nil, fmt.Errorf("-fsync interval requires a positive -fsync-every (got %s): the log would never be synced", *fsyncEvery)
		}
	}

	rt, err := b.start()
	if err != nil {
		return nil, err
	}
	var operator principal.Principal
	if *operatorFile != "" {
		if operator, err = server.LoadPrincipalFile(*operatorFile); err != nil {
			return nil, fmt.Errorf("operator principal: %w", err)
		}
	}
	var ctlSigner *httpauth.CtlSigner
	if *ctlKeyFile != "" {
		priv, err := sfkey.LoadPrivateKeyFile(*ctlKeyFile)
		if err != nil {
			return nil, err
		}
		var chain []*cert.Cert
		if *ctlCertFile != "" {
			if chain, err = cert.LoadCertFile(*ctlCertFile); err != nil {
				return nil, err
			}
		}
		ctlSigner = httpauth.NewCtlSigner(prover.NewKeyClosure(priv), operator, chain...)
		rt.Printf("signing outbound control-plane requests for operator %s", operator)
	}

	var store *certdir.Store
	if *dataDir != "" {
		st, rec, err := certdir.OpenDurable(*dataDir, *shards, policy, time.Now())
		if err != nil {
			return nil, err
		}
		store = st
		// Signal death stays safe (replay + torn-tail truncation),
		// but a clean shutdown also closes the log.
		rt.OnShutdown(func() {
			if err := store.CloseWAL(); err != nil {
				rt.Printf("wal close: %v", err)
			}
		})
		rt.Printf("replayed %d WAL records from %s (%d dropped, %d events, %d CRLs, torn=%v, compacted=%v, %d certs live)",
			rec.Replayed, *dataDir, rec.Dropped, rec.Events, len(store.CRLs()), rec.Torn, rec.Compacted, store.Len())
		if policy == certdir.SyncInterval {
			rt.Every(*fsyncEvery, func() {
				if err := store.SyncWAL(); err != nil {
					rt.Printf("wal sync: %v", err)
				}
			})
		}
	} else {
		store = certdir.NewStore(*shards)
	}

	// The CRLs a durable directory replayed are in force before it
	// serves: a control credential revoked before a restart stays
	// revoked after it.
	revocations := cert.NewRevocationStore()
	certdir.InstallCRLs(revocations, store, store.CRLs(), time.Now())
	rt.Every(*sweep, func() {
		now := time.Now()
		expired := store.Sweep(now)
		revoked := store.EvictRevoked(revocations.RevokedAt(now))
		lapsed := revocations.Sweep(now)
		if expired+revoked+lapsed > 0 {
			rt.Printf("swept %d expired, %d revoked, %d lapsed CRLs (%d stored)",
				expired, revoked, lapsed, store.Len())
		}
	})

	svc := certdir.NewService(store)
	svc.Revocations = revocations
	svc.Obs = rt.Tracer()
	svc.PublishHist = rt.Latencies().PublishAck
	svc.CRLHist = rt.Latencies().CRLInstall

	// Bootstrap snapshots: periodically freeze the live directory
	// into one fsynced, atomically renamed artifact that the
	// snapshot endpoint serves, so a cold peer joins with one bulk
	// transfer instead of gossiping its way up from empty. Until the
	// first write (or without the flag) the endpoint streams live
	// from the store.
	if *snapshotEvery > 0 {
		svc.SnapshotPath = filepath.Join(*dataDir, certdir.SnapshotFileName)
		rt.Every(*snapshotEvery, func() {
			if err := certdir.WriteSnapshotFile(svc.SnapshotPath, store, revocations, time.Now()); err != nil {
				rt.Printf("snapshot: %v", err)
			}
		})
	}

	if *adminAuth {
		svc.Guard = httpauth.NewCtlGuard(operator, revocations)
		svc.Guard.Audit = rt.Audit()
		rt.Printf("control plane enforcing: callers must speak for %s", operator)
	}

	if len(peers) > 0 {
		clients := make([]*certdir.Client, len(peers))
		for i, p := range peers {
			clients[i] = certdir.NewClient(p)
			clients[i].Ctl = ctlSigner
		}
		rep := certdir.NewReplicator(store, clients)
		rep.Revocations = revocations
		rep.RoundHist = rt.Latencies().GossipRound
		rep.Interval = *gossip
		if *gossip <= 0 {
			// A zero ticker panics; an effectively-infinite interval
			// keeps the follows running while disabling Merkle rounds,
			// as documented.
			rep.Interval = time.Duration(1<<62 - 1)
		}
		rep.Logf = rt.Printf
		rep.Start()
		rt.OnShutdown(rep.Stop)
		svc.Replicator = rep
		// One eager round so a restarted or freshly added node
		// catches up on what is older than its peers' retained
		// record tails before its first ticker tick. A completely
		// empty store — a node joining an established mesh for the
		// first time — tries snapshot bootstrap first: one bulk
		// transfer instead of pulling the whole directory through
		// gossip fetches. Failure just means gossip does the whole
		// job.
		empty := store.Len() == 0
		go func() {
			if empty {
				if n, err := rep.BootstrapFromPeer(context.Background()); err != nil {
					rt.Printf("snapshot bootstrap: %v (falling back to gossip)", err)
				} else {
					rt.Printf("snapshot bootstrap adopted %d certs", n)
				}
			}
			if n, err := rep.Converge(); err != nil {
				rt.Printf("initial anti-entropy: %v", err)
			} else if n > 0 {
				rt.Printf("initial anti-entropy pulled %d certs", n)
			}
		}()
		rt.Printf("replicating with %d peer(s), gossip every %s", len(peers), *gossip)
	}

	// Hot CRL reload: SIGHUP and the admin endpoint run the same
	// function — re-read the file and install it the way every CRL
	// is installed (new lists only; dedup keeps a no-op reload from
	// flushing the proof cache), which evicts what the new lists
	// void right now rather than at the next sweep and puts them on
	// the record stream the peers follow.
	if *crlFile != "" {
		reload, err := rt.WireCRLFile(*crlFile, func(lists []*cert.RevocationList) (int, int, error) {
			res := certdir.InstallCRLs(revocations, store, lists, time.Now())
			return res.Installed, res.Evicted, res.Err
		})
		if err != nil {
			return nil, err
		}
		svc.ReloadCRLs = reload
	}

	// Operator metrics: the Prometheus mirror of the stats endpoint.
	rt.Metrics().Register(func(emit func(server.Metric)) {
		st := store.Stats()
		emit(server.Gauge("sf_certdir_stored", "Certificates currently indexed.", float64(store.Len())))
		emit(server.Counter("sf_certdir_published_total", "Certificates accepted by publish.", float64(st.Published)))
		emit(server.Counter("sf_certdir_rejected_total", "Publishes refused by verification.", float64(st.Rejected)))
		emit(server.Counter("sf_certdir_queries_total", "Query requests served.", float64(st.Queries)))
		emit(server.Counter("sf_certdir_removed_total", "Certificates retracted.", float64(st.Removed)))
		emit(server.Counter("sf_certdir_evicted_total", "Certificates evicted by revocation.", float64(st.Evicted)))
		emit(server.Gauge("sf_crls", "Revocation lists installed.", float64(len(revocations.Lists()))))
		if svc.Replicator != nil {
			rs := svc.Replicator.Stats()
			emit(server.Counter("sf_certdir_gossip_pushes_total", "Removal repairs delivered to peers by anti-entropy (a peer still serving a certificate removed here).", float64(rs.Pushes)))
			emit(server.Counter("sf_certdir_gossip_pulled_total", "Certificates indexed from peers, by following their record streams and by anti-entropy.", float64(rs.Pulled)))
			emit(server.Counter("sf_certdir_gossip_crls_pulled_total", "CRLs installed from peers' record streams.", float64(rs.CRLsPulled)))
			emit(server.Counter("sf_gossip_digest_bytes_total", "Anti-entropy summary bytes moved (request + reply).", float64(rs.DigestBytes)))
			emit(server.Counter("sf_gossip_rounds_total", "Anti-entropy rounds completed.", float64(rs.Rounds)))
			emit(server.Counter("sf_gossip_descents_total", "Merkle node-summary round trips.", float64(rs.Descents)))
		}
		if ws, ok := store.WALStats(); ok {
			emit(server.Gauge("sf_certdir_wal_segments", "WAL segments on disk.", float64(ws.Segments)))
			emit(server.Gauge("sf_certdir_wal_size_bytes", "WAL bytes on disk.", float64(ws.SizeBytes)))
			emit(server.Counter("sf_certdir_wal_compactions_total", "WAL compactions committed (log rewritten as one base segment).", float64(ws.Compactions)))
		}
		if svc.Guard != nil {
			gs := svc.Guard.Stats()
			emit(server.Counter("sf_ctl_authorized_total", "Control-plane requests authorized.", float64(gs.Authorized)))
			emit(server.Counter("sf_ctl_denied_total", "Control-plane requests denied.", float64(gs.Denied)))
		}
	})

	// A request's context ends when the daemon begins to stop. Only a
	// poll held at the events endpoint waits on it: it answers at once,
	// so the drain does not wait out the holds of the peers and
	// subscribers that follow this directory.
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithCancel(r.Context())
		defer cancel()
		defer context.AfterFunc(rt.Stopping(), cancel)()
		svc.ServeHTTP(w, r.WithContext(ctx))
	})
	if n, err = b.serve(*addr, h, *adminAddr); err == nil {
		rt.Printf("directory listening on %s (%d shards)", n.Addr, *shards)
	}
	return n, err
}
