// Command sf-certd runs the certificate directory daemon: principals
// publish signed delegations, provers on other machines query by
// issuer or subject to discover speaks-for chains (internal/certdir).
//
// Usage:
//
//	sf-certd -addr 127.0.0.1:8360
//	sf-certd -addr 127.0.0.1:8360 -shards 64 -sweep 30s -crl revoked.crl
//	sf-certd -addr 127.0.0.1:8360 -data-dir /var/lib/sf-certd \
//	         -fsync always -peer http://dir-b:8360 -peer http://dir-c:8360
//	sf-certd -addr 127.0.0.1:8360 -admin-auth -operator operator.prin \
//	         -ctl-key dirA.key -ctl-cert dirA-ctl.cert -peer http://dir-b:8360
//
// With -data-dir the directory is durable: accepted publishes and
// removals are journaled to a write-ahead log before they are
// acknowledged, and a restart replays the log. With one or more -peer
// flags the directory replicates: publishes fan out to the peers
// immediately and a periodic anti-entropy round pulls whatever a push
// missed. The -crl file holds CRL S-expressions (one per line or
// concatenated); listed certificates are evicted at every sweep, and
// the file is re-read without a restart on SIGHUP or through the
// POST /certdir/admin/reload endpoint. CRLs also arrive live over
// POST /certdir/admin/crl and replicate to peers (CRL gossip), and
// every removal or revocation is emitted on the /certdir/events
// stream so subscribed provers drop their cached copies.
//
// With -admin-auth the control plane is closed: publish, remove, and
// the admin endpoints demand a speaks-for proof that the request
// speaks for the -operator principal regarding (sf-ctl publish) or
// (sf-ctl admin) — the same certificates, the same proof cache, the
// same revocation pipeline as the data plane, so revoking an
// operator credential locks its holder out on the next request. The
// daemon's own gossip pushes are signed with -ctl-key plus the
// -ctl-cert chain. -admin-addr serves /metrics (Prometheus format).
// docs/OPERATIONS.md covers every flag and counter in detail.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"path/filepath"
	"time"

	"repro/internal/cert"
	"repro/internal/certdir"
	"repro/internal/core"
	"repro/internal/httpauth"
	"repro/internal/principal"
	"repro/internal/prover"
	"repro/internal/server"
	"repro/internal/sfkey"
)

// peerList collects repeated -peer flags.
type peerList []string

func (p *peerList) String() string { return fmt.Sprint(*p) }
func (p *peerList) Set(v string) error {
	*p = append(*p, v)
	return nil
}

func main() {
	addr := flag.String("addr", "127.0.0.1:8360", "listen address")
	adminAddr := flag.String("admin-addr", "", "admin/metrics HTTP listen address (empty = disabled)")
	shards := flag.Int("shards", certdir.DefaultShards, "store shard count")
	sweep := flag.Duration("sweep", 30*time.Second, "expiry sweep interval (0 disables)")
	crlFile := flag.String("crl", "", "file of CRL S-expressions to enforce")
	dataDir := flag.String("data-dir", "", "directory for the write-ahead log (empty = memory-only)")
	fsync := flag.String("fsync", "always", "WAL fsync policy: always, interval, or never")
	fsyncEvery := flag.Duration("fsync-every", time.Second, "sync period under -fsync interval")
	snapshotEvery := flag.Duration("snapshot-every", 0, "bootstrap snapshot write interval (0 disables; requires -data-dir)")
	var peers peerList
	flag.Var(&peers, "peer", "peer directory base URL (repeatable) to replicate with")
	gossip := flag.Duration("gossip", certdir.DefaultGossipInterval, "anti-entropy round interval (0 disables pulls; pushes still run)")
	adminAuth := flag.Bool("admin-auth", false, "require speaks-for proofs on publish/remove/admin endpoints")
	operatorFile := flag.String("operator", "", "file holding the operator principal S-expression (required with -admin-auth)")
	ctlKeyFile := flag.String("ctl-key", "", "private key signing this daemon's gossip pushes (required with -admin-auth and -peer)")
	ctlCertFile := flag.String("ctl-cert", "", "certificate chain file delegating control authority to -ctl-key")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	obsFlags := server.RegisterObsFlags()
	flag.Parse()

	rt := server.New("sf-certd")
	logger, err := server.NewLogger(*logFormat)
	if err != nil {
		log.Fatalf("sf-certd: %v", err)
	}
	rt.Logger = logger
	if err := obsFlags.Wire(rt); err != nil {
		log.Fatalf("sf-certd: audit log: %v", err)
	}

	var store *certdir.Store
	if *dataDir != "" {
		policy, err := certdir.ParseSyncPolicy(*fsync)
		if err != nil {
			log.Fatalf("sf-certd: %v", err)
		}
		st, rec, err := certdir.OpenDurable(*dataDir, *shards, policy, time.Now())
		if err != nil {
			log.Fatalf("sf-certd: %v", err)
		}
		store = st
		rt.Printf("replayed %d WAL records from %s (%d dropped, %d events, torn=%v, compacted=%v, %d certs live)",
			rec.Replayed, *dataDir, rec.Dropped, rec.Events, rec.Torn, rec.Compacted, store.Len())
		if policy == certdir.SyncInterval {
			rt.Every(*fsyncEvery, func() {
				if err := store.SyncWAL(); err != nil {
					rt.Printf("wal sync: %v", err)
				}
			})
		}
		// Signal death stays safe (replay + torn-tail truncation), but a
		// clean SIGTERM also closes the log.
		rt.OnShutdown(func() {
			if err := store.CloseWAL(); err != nil {
				rt.Printf("wal close: %v", err)
			}
		})
	} else {
		store = certdir.NewStore(*shards)
	}

	revocations := cert.NewRevocationStore()
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

	// Bootstrap snapshots: periodically freeze the live directory into
	// one fsynced, atomically renamed artifact that the snapshot
	// endpoint serves, so a cold peer joins with one bulk transfer
	// instead of gossiping its way up from empty. Until the first write
	// (or without the flag) the endpoint streams live from the store.
	if *snapshotEvery > 0 {
		if *dataDir == "" {
			log.Fatal("sf-certd: -snapshot-every requires -data-dir")
		}
		snapPath := filepath.Join(*dataDir, certdir.SnapshotFileName)
		svc.SnapshotPath = snapPath
		rt.Every(*snapshotEvery, func() {
			if err := certdir.WriteSnapshotFile(snapPath, store, revocations, time.Now()); err != nil {
				rt.Printf("snapshot: %v", err)
			}
		})
	}

	// Control-plane wiring. The signer (outbound: authenticates this
	// daemon's pushes to its peers) and the guard (inbound: closes this
	// daemon's own mutating endpoints) are deliberately independent —
	// the documented migration runs a mesh signing-but-not-enforcing
	// first, then enables -admin-auth one node at a time, so -ctl-key
	// must work without -admin-auth.
	var operator principal.Principal
	if *operatorFile != "" {
		var err error
		if operator, err = server.LoadPrincipalFile(*operatorFile); err != nil {
			log.Fatalf("sf-certd: operator principal: %v", err)
		}
	}
	var ctlSigner *httpauth.CtlSigner
	if *ctlCertFile != "" && *ctlKeyFile == "" {
		log.Fatal("sf-certd: -ctl-cert requires -ctl-key (a credential without its key signs nothing)")
	}
	if *ctlKeyFile != "" {
		if operator == nil {
			log.Fatal("sf-certd: -ctl-key requires -operator (the principal peers enforce)")
		}
		priv, err := sfkey.LoadPrivateKeyFile(*ctlKeyFile)
		if err != nil {
			log.Fatalf("sf-certd: %v", err)
		}
		var chain []*cert.Cert
		if *ctlCertFile != "" {
			if chain, err = cert.LoadCertFile(*ctlCertFile); err != nil {
				log.Fatalf("sf-certd: %v", err)
			}
		}
		ctlSigner = httpauth.NewCtlSigner(prover.NewKeyClosure(priv), operator, chain...)
		rt.Printf("signing outbound control-plane requests for operator %s", operator)
	}
	if *adminAuth {
		if operator == nil {
			log.Fatal("sf-certd: -admin-auth requires -operator")
		}
		if ctlSigner == nil && len(peers) > 0 {
			log.Fatal("sf-certd: -admin-auth with -peer requires -ctl-key (peers will reject unsigned pushes)")
		}
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
			// keeps pushes running while disabling pulls, as documented.
			rep.Interval = time.Duration(1<<62 - 1)
		}
		rep.Logf = rt.Printf
		rep.Start()
		rt.OnShutdown(rep.Stop)
		svc.Replicator = rep
		// One eager round so a restarted or freshly added node catches
		// up before its first ticker tick. A completely empty store —
		// a node joining an established mesh for the first time — tries
		// snapshot bootstrap first: one bulk transfer instead of pulling
		// the whole directory through gossip fetches. Failure just means
		// gossip does the whole job, as before snapshots existed.
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
	// function through the runtime's shared wiring — re-read the file
	// and install it the way every CRL is installed (new lists only;
	// dedup keeps a no-op reload from flushing the proof cache), which
	// evicts what the new lists void RIGHT NOW rather than at the next
	// sweep and fans them out to peers.
	if *crlFile != "" {
		reload, err := rt.WireCRLFile(*crlFile, func(lists []*cert.RevocationList) (int, int, error) {
			res := certdir.InstallCRLs(revocations, store, svc.Replicator, lists, time.Now())
			return res.Installed, res.Evicted, res.Err
		})
		if err != nil {
			log.Fatalf("sf-certd: %v", err)
		}
		svc.ReloadCRLs = reload
	}

	// Operator metrics: the Prometheus mirror of the stats endpoint,
	// served at /metrics on -admin-addr.
	m := rt.Metrics()
	m.Register(server.ProofCacheCollector(core.SharedProofCache()))
	m.Register(func(emit func(server.Metric)) {
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
			emit(server.Counter("sf_certdir_gossip_pushes_total", "Mutations delivered to peers by push, per peer (a pushed run of n certificates counts n).", float64(rs.Pushes)))
			emit(server.Counter("sf_certdir_gossip_pulled_total", "Certificates pulled by anti-entropy.", float64(rs.Pulled)))
			emit(server.Counter("sf_certdir_gossip_crls_pulled_total", "CRLs pulled by anti-entropy.", float64(rs.CRLsPulled)))
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

	bound, err := rt.Serve(*addr, svc)
	if err != nil {
		log.Fatalf("sf-certd: %v", err)
	}
	if _, err := rt.ServeAdmin(*adminAddr); err != nil {
		log.Fatalf("sf-certd: %v", err)
	}
	rt.Printf("directory listening on %s (%d shards)", bound, *shards)
	if err := rt.Wait(); err != nil {
		log.Fatalf("sf-certd: %v", err)
	}
}
