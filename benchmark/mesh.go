package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cert"
	"repro/internal/certdir"
	"repro/internal/channel"
	"repro/internal/channel/secure"
	"repro/internal/core"
	"repro/internal/emaildb"
	"repro/internal/gateway"
	"repro/internal/loadgen"
	"repro/internal/obs"
	"repro/internal/prover"
	"repro/internal/rmi"
)

// mesh is the system under test for the admit workloads: directories
// in full-mesh push replication and gossip, one email database behind
// RMI following the directories' CRLs, and gateways each with its own
// prover subscribed to its home directory. Every hop is a real
// loopback listener. The wiring mirrors loadgen.StartMesh (and
// through it the daemons); it is repeated here because that function
// leaves no place to hang the decorators a traced run needs.
type mesh struct {
	dirs []*meshDir
	gws  []*meshGateway

	mail     *emaildb.Service
	dbRevs   *cert.RevocationStore
	dbSrv    *rmi.Server
	dbLn     *secure.Listener
	follower *certdir.CRLFollower

	dataRoot string
}

type meshDir struct {
	store *certdir.Store
	svc   *certdir.Service
	rep   *certdir.Replicator
	cl    *certdir.Client
	srv   *http.Server
}

type meshGateway struct {
	gw     *gateway.Gateway
	prover *prover.Prover
	url    string
	http   *http.Client
	srv    *http.Server
	db     *rmi.Client
	sub    *prover.Subscription
}

// meshConfig sizes a mesh. Gateways and directories are fixed at two
// each: enough for cross-directory discovery and replication, small
// enough for the two cores the benchmark is sized for.
type meshConfig struct {
	gossip   time.Duration // directory gossip, CRL follow and (halved) negative-cache period
	clients  int           // closed-loop clients, for connection pool sizing
	auditCap int           // decisions the database's audit ring retains
	workDir  string        // parent of the directories' data dirs
}

const (
	meshGateways    = 2
	meshDirectories = 2
)

// startDir opens one journaled directory under dataDir and serves it
// on loopback. SyncNever: the benchmark measures the protocol, not the
// disk. tr is nil for an untraced directory. Replication is the
// caller's to wire, once it knows the peers.
func startDir(dataDir string, tr *tracer) (*meshDir, error) {
	st, _, err := certdir.OpenDurable(dataDir, 0, certdir.SyncNever, time.Now())
	if err != nil {
		return nil, err
	}
	svc := certdir.NewService(st)
	svc.Obs = tr.progRecorder()
	var h http.Handler = svc
	if tr != nil {
		h = timedHandler(svc, &tr.dirServe)
	}
	srv, url, err := listen(h)
	if err != nil {
		st.CloseWAL()
		return nil, err
	}
	return &meshDir{store: st, svc: svc, cl: certdir.NewClient(url), srv: srv}, nil
}

// replicateTo starts d's replicator towards its peers.
func (d *meshDir) replicateTo(gossip time.Duration, peers ...*meshDir) {
	var clients []*certdir.Client
	for _, p := range peers {
		clients = append(clients, certdir.NewClient(p.cl.BaseURL))
	}
	d.rep = certdir.NewReplicator(d.store, clients)
	d.rep.Revocations = d.svc.Revocations
	d.rep.Interval = gossip
	d.rep.Start()
	d.svc.Replicator = d.rep
}

func (d *meshDir) close() {
	if d.rep != nil {
		d.rep.Stop()
	}
	d.srv.Close()
	d.store.CloseWAL()
}

// listen serves h on a fresh loopback port.
func listen(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln)
	return srv, "http://" + ln.Addr().String(), nil
}

// startMesh boots the world for g. tr is nil for an untraced mesh.
// The caller closes the mesh, also when startMesh fails part-way.
func startMesh(cfg meshConfig, g *loadgen.Graph, tr *tracer) (m *mesh, err error) {
	m = &mesh{}
	defer func() {
		if err != nil {
			m.close()
		}
	}()
	if m.dataRoot, err = os.MkdirTemp(cfg.workDir, "mesh-"); err != nil {
		return nil, err
	}
	for i := 0; i < meshDirectories; i++ {
		d, err := startDir(filepath.Join(m.dataRoot, fmt.Sprintf("dir%d", i)), tr)
		if err != nil {
			return nil, fmt.Errorf("directory %d: %w", i, err)
		}
		d.svc.Revocations = cert.NewRevocationStore()
		m.dirs = append(m.dirs, d)
	}
	for i, d := range m.dirs {
		var peers []*meshDir
		for j, p := range m.dirs {
			if j != i {
				peers = append(peers, p)
			}
		}
		d.replicateTo(cfg.gossip, peers...)
	}

	// The database domain: revocation enforced, CRLs pulled from
	// directory 0 (CRL gossip spreads every list to every directory).
	if m.mail, err = emaildb.NewService(); err != nil {
		return nil, err
	}
	m.dbSrv = rmi.NewServer()
	m.dbSrv.Obs = tr.progRecorder()
	m.dbSrv.Audit = obs.NewAuditLog(cfg.auditCap)
	m.dbRevs = cert.NewRevocationStore()
	if err := emaildb.RegisterWithRevocation(m.dbSrv, m.mail, g.DBIssuer, m.dbRevs); err != nil {
		return nil, err
	}
	if m.dbLn, err = secure.Listen("127.0.0.1:0", &secure.Identity{Priv: g.DBKey}); err != nil {
		return nil, err
	}
	go m.dbSrv.Serve(m.dbLn)
	m.follower = certdir.NewCRLFollower(m.dirs[0].cl, m.dbRevs)
	m.follower.Interval = cfg.gossip
	m.follower.Start()

	for i := 0; i < meshGateways; i++ {
		key := g.GatewayKeys[i]
		home := m.dirs[i%meshDirectories]
		pv := gateway.NewProver(key)
		id, err := secure.NewIdentity()
		if err != nil {
			return nil, err
		}
		pv.AddClosure(prover.NewKeyClosure(id.Priv))
		// A principal published moments ago must become provable within
		// a gossip round, not a default 30 s negative TTL later.
		pv.NegativeTTL = cfg.gossip / 2
		var dialer channel.Dialer = secure.Dialer{ID: id}
		if tr != nil {
			pv.AddRemote(timedSource{inner: home.cl, tr: tr})
			dialer = timedDialer{inner: dialer, tr: tr}
		} else {
			pv.AddRemote(home.cl)
		}
		mg := &meshGateway{prover: pv}
		m.gws = append(m.gws, mg)
		mg.sub = pv.SubscribeWait(home.cl, core.SharedProofCache(), 2*time.Second)
		if mg.db, err = rmi.Dial(dialer, m.dbLn.Addr().String(), pv); err != nil {
			return nil, err
		}
		mg.gw = gateway.New(key, mg.db, g.DBIssuer, pv)
		mg.gw.Audit = obs.NewAuditLog(0)
		mg.gw.Obs = tr.progRecorder()
		var h http.Handler = mg.gw
		if tr != nil {
			h = timedHandler(mg.gw, &tr.gwServe)
		}
		if mg.srv, mg.url, err = listen(h); err != nil {
			return nil, err
		}
		mg.http = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: cfg.clients + 2}}
	}
	return m, nil
}

// proverStats sums discovery counters across the gateways' provers.
func (m *mesh) proverStats() prover.Stats {
	var out prover.Stats
	for _, mg := range m.gws {
		st := mg.prover.Stats()
		out.RemoteQueries += st.RemoteQueries
		out.RemoteCerts += st.RemoteCerts
		out.NegCacheHits += st.NegCacheHits
	}
	return out
}

// dirCounters sums the write-path counters across directories: WAL
// appends, replication pushes delivered, and pushes abandoned or shed
// by a full queue.
func dirCounters(dirs []*meshDir) (walAppends, pushed, pushFailed int64) {
	for _, d := range dirs {
		if ws, ok := d.store.WALStats(); ok {
			walAppends += ws.Appends
		}
		rs := d.rep.Stats()
		pushed, pushFailed = pushed+rs.Pushes, pushFailed+rs.PushFailures+rs.QueueDrops
	}
	return
}

// close tears the world down in reverse dependency order and removes
// the data dirs. Safe on a partly built mesh.
func (m *mesh) close() {
	for _, mg := range m.gws {
		mg.sub.Stop()
		if mg.srv != nil {
			mg.srv.Close()
		}
		if mg.db != nil {
			mg.db.Close()
		}
		if mg.http != nil {
			mg.http.CloseIdleConnections()
		}
	}
	if m.follower != nil {
		m.follower.Stop()
	}
	if m.dbLn != nil {
		m.dbLn.Close()
	}
	for _, d := range m.dirs {
		d.close()
	}
	if m.dataRoot != "" {
		os.RemoveAll(m.dataRoot)
	}
}
