package main

import (
	"context"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/emaildb"
	"repro/internal/httpauth"
	"repro/internal/loadgen"
	"repro/internal/obs"
	"repro/internal/principal"
	"repro/internal/sfkey"
)

// admitConfig sizes one of the three admit workloads. The full-scale
// values are fixed in workloads.go and identical on every commit; the
// self-test passes toy ones.
type admitConfig struct {
	churn bool // background invalidation beside the lookups
	cold  bool // every principal admitted exactly once, in the timed region

	seed       int64
	principals int
	orgs       int
	clients    int           // closed-loop clients, one request in flight each
	gossip     time.Duration // directory gossip, CRL follow interval
	slices     int           // slices a timed region is cut into
	// traceEvery is the client-side head sampling of a traced region:
	// every n-th operation carries spans. It keeps a region's spans
	// inside the recorders' rings.
	traceEvery int64

	// Churn schedule (open loop: due times are fixed multiples of the
	// periods from region start, so a slower build is not given less
	// churn). Every flushEvery one throwaway certificate is published
	// and revoked, which bumps the proof-cache epoch; every victimEvery
	// one real principal's grant is revoked at its non-home directory.
	flushEvery   time.Duration
	victimEvery  time.Duration
	revokeRounds int // gossip intervals a revocation may take to bite

	workDir string
}

// mintTTL bounds each signed request's validity.
const mintTTL = time.Hour

// scheduleLen is the length of the zipf target schedule the warm
// workloads cycle through.
const scheduleLen = 1 << 17

// coldWarmup is how many principals the cold workload admits before
// its timed region, so connections and lazy set-up are not timed.
// They are taken from the tail of the population and never reused.
const coldWarmup = 8

type admitWorkload struct {
	cfg admitConfig
	tr  *tracer // nil in an untraced world

	g *loadgen.Graph
	m *mesh

	coldHist, warmHist *obs.Histogram // the gateways' own cold/warm classification

	order []int        // cold: principal indexes in admit order
	next  atomic.Int64 // next schedule slot (warm) or order slot (cold)
	done  atomic.Int64 // correct 200s

	victims    []*victim // by principal index; nil: never a victim
	nextVictim int

	layerCounts map[string]float64
	auth        string // one captured Authorization value, for the layer replay
	authOnce    sync.Once
}

// victim tracks one principal whose grant the churn schedule revokes.
// Times are UnixNano; zero means "not yet".
type victim struct {
	revokedAt atomic.Int64 // just before the CRL was pushed
	deniedAt  atomic.Int64 // when the first rejection was observed
}

func (w *admitWorkload) close() {
	if w.m != nil {
		w.m.close()
		w.m = nil
	}
}

func (w *admitWorkload) setUp() error {
	w.close()
	// Isolation by construction: no verdict cached by an earlier world
	// of this process survives into this one.
	core.SharedProofCache().Reset()
	cfg := w.cfg
	g, err := buildGraph(cfg.seed, cfg.principals, cfg.orgs, worldClock())
	if err != nil {
		return err
	}
	w.g = g
	auditCap := obs.DefaultAuditSize
	if cfg.churn {
		// The end-of-run sweep reads every decision the database made
		// after a revocation, so its ring must hold the whole run.
		auditCap = 1 << 18
	}
	if w.m, err = startMesh(meshConfig{
		gossip: cfg.gossip, clients: cfg.clients, auditCap: auditCap, workDir: cfg.workDir,
	}, g, w.tr); err != nil {
		return err
	}
	w.coldHist = obs.NewHistogram("sf_benchmark_admit_cold_seconds", "admits the gateway classified cold")
	w.warmHist = obs.NewHistogram("sf_benchmark_admit_warm_seconds", "admits the gateway classified warm")
	for _, mg := range w.m.gws {
		mg.gw.ColdAdmit, mg.gw.WarmAdmit = w.coldHist, w.warmHist
	}

	for _, p := range g.Principals {
		var reply emaildb.InsertReply
		if err := w.m.mail.Insert(emaildb.InsertArgs{Msg: emaildb.Message{
			Owner: p.Owner, Folder: "inbox", From: "postmaster", To: p.Owner,
			Subject: mailSubject(p.Owner), Date: g.Validity.NotBefore,
		}}, &reply); err != nil {
			return err
		}
	}
	if err := w.publishGraph(); err != nil {
		return err
	}
	// Publishing verified every certificate in this process, and every
	// layer shares one process-wide proof cache. A gateway would not
	// have those verdicts; drop them so first contact pays for its own
	// verification.
	core.SharedProofCache().Reset()

	w.next.Store(0)
	w.done.Store(0)
	// Victim candidates are the tail quarter of the population, where
	// the zipf schedule rarely lands. Their state exists before any
	// client runs, so clients and the churn schedule share only atomics.
	w.victims = make([]*victim, len(g.Principals))
	if cfg.churn {
		for i := len(g.Principals) - len(g.Principals)/4; i < len(g.Principals); i++ {
			w.victims[i] = &victim{}
		}
	}
	w.nextVictim = 0
	warm := g.Principals
	if cfg.cold {
		n := len(g.Principals) - coldWarmup
		w.order = rand.New(rand.NewSource(cfg.seed + 1)).Perm(n)
		warm = g.Principals[n:]
	}
	return w.admitAll(warm)
}

// buildGraph generates the delegation world: a pure function of its
// arguments. Only the world-shaping fields of loadgen.Config matter to
// BuildGraph; the others are set to pass its validation.
func buildGraph(seed int64, principals, orgs int, now time.Time) (*loadgen.Graph, error) {
	return loadgen.BuildGraph(loadgen.Config{
		Gateways: meshGateways, Directories: meshDirectories,
		Principals: principals, Orgs: orgs, Seed: seed, ZipfS: 1.3, WarmOps: scheduleLen,
		Concurrency: 1, GossipInterval: time.Second, RevokeRounds: 1, MintTTL: mintTTL, Now: now,
	})
}

func mailSubject(owner string) string { return "welcome " + owner }

// publishGraph pushes every certificate through the wire publish path
// at a directory chosen by its hash, then waits for push replication
// to land the full set everywhere: the chains are in the directories
// and nowhere else.
func (w *admitWorkload) publishGraph() error {
	certs := w.g.Certs
	var errs firstError
	forEach(w.cfg.clients, len(certs), func(i int) {
		c := certs[i]
		errs.note(w.m.dirs[int(c.Hash()[0])%len(w.m.dirs)].cl.Publish(c))
	})
	if errs.err != nil {
		return fmt.Errorf("set-up: %d of %d publishes failed, first: %w", errs.n, len(certs), errs.err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for _, d := range w.m.dirs {
		for d.store.Len() < len(certs) {
			if time.Now().After(deadline) {
				return fmt.Errorf("set-up: directories did not converge to %d certificates", len(certs))
			}
			time.Sleep(w.cfg.gossip / 10)
		}
	}
	return nil
}

// admitAll admits each of ps once (a cold admit) and requires a 200.
func (w *admitWorkload) admitAll(ps []*loadgen.Synthetic) error {
	var errs firstError
	forEach(w.cfg.clients, len(ps), func(i int) {
		status, body, err := w.admit(ps[i], false)
		if err == nil {
			err = checkAdmitted(ps[i], status, body)
		}
		errs.note(err)
	})
	if errs.err != nil {
		return fmt.Errorf("set-up warm-up: %d admits failed, first: %w", errs.n, errs.err)
	}
	return nil
}

// forEach runs fn(i) for i in [0,n) on the given number of workers.
func forEach(workers, n int, fn func(int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// admit sends one signed GET for p's mailbox through p's gateway and
// returns what came back. The request carries only the signed request
// (R speaks for P); the delegation chain must already be, or become,
// known to the gateway's prover. With trace set the operation records
// client-side spans and propagates them on the Sf-Trace header, so the
// program's spans hang under them.
func (w *admitWorkload) admit(p *loadgen.Synthetic, trace bool) (status int, body []byte, err error) {
	gw := w.m.gws[p.Gateway]
	ctx := context.Background()
	if trace {
		var root *obs.ActiveSpan
		ctx, root = w.tr.client.Start(ctx, "client.admit")
		defer root.End()
	}

	_, mint := obs.StartSpan(ctx, "client.mint")
	req, err := signedRequest(gw.url, p)
	if err != nil {
		return 0, nil, err
	}
	mint.End()

	_, rt := obs.StartSpan(ctx, "client.roundtrip")
	defer rt.End()
	if h := rt.Header(); h != "" {
		req.Header.Set(obs.TraceHeader, h)
	}
	resp, err := gw.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if body, err = io.ReadAll(resp.Body); err != nil {
		return 0, nil, err
	}
	if trace {
		w.authOnce.Do(func() { w.auth = req.Header.Get("Authorization") })
	}
	return resp.StatusCode, body, nil
}

// signedRequest builds the GET for p's mailbox at the gateway at base
// and signs it: the Authorization header carries a fresh certificate
// in which p says the request (by its hash) speaks for p.
func signedRequest(base string, p *loadgen.Synthetic) (*http.Request, error) {
	req, err := http.NewRequest(http.MethodGet, base+"/mail?owner="+p.Owner+"&folder=inbox", nil)
	if err != nil {
		return nil, err
	}
	reqPrin, _, err := httpauth.RequestPrincipal(req)
	if err != nil {
		return nil, err
	}
	now := time.Now()
	rp, err := cert.Delegate(p.Key, reqPrin, p.Prin, emaildb.OwnerTag(p.Owner),
		core.Between(now.Add(-time.Minute), now.Add(mintTTL)))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Authorization", httpauth.SchemeProof+` request-proof=`+string(rp.Sexp().Transport()))
	return req, nil
}

// checkAdmitted is the output check of one admit that must succeed:
// status 200 and the mailbox of the principal that asked, holding the
// message seeded for it.
func checkAdmitted(p *loadgen.Synthetic, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s: status %d, want 200: %s", p.Owner, status, firstLine(body))
	}
	if !strings.Contains(string(body), "Mailbox: "+p.Owner+"<") ||
		!strings.Contains(string(body), mailSubject(p.Owner)) {
		return fmt.Errorf("%s: 200 with the wrong mailbox: %s", p.Owner, firstLine(body))
	}
	return nil
}

func firstLine(b []byte) string {
	s, _, _ := strings.Cut(strings.TrimSpace(string(b)), "\n")
	if len(s) > 120 {
		s = s[:120]
	}
	return s
}

// judge classifies one admit's outcome. A principal the churn schedule
// has not revoked must get its own mailbox. A revoked one may still be
// admitted until its rejection has been observed once (the revocation
// is in flight); from then on every admit is a safety failure.
func (w *admitWorkload) judge(p *loadgen.Synthetic, started time.Time, status int, body []byte) (admitted bool, err error) {
	v := w.victims[p.Index]
	if v == nil || v.revokedAt.Load() == 0 || started.UnixNano() < v.revokedAt.Load() {
		if err := checkAdmitted(p, status, body); err != nil {
			return false, err
		}
		return true, nil
	}
	if status == http.StatusOK {
		if d := v.deniedAt.Load(); d != 0 && started.UnixNano() > d {
			return false, fmt.Errorf("%s: admitted after its revocation had been observed to bite", p.Owner)
		}
		return false, nil
	}
	if status != http.StatusForbidden {
		return false, fmt.Errorf("%s: revoked principal got status %d, want 403", p.Owner, status)
	}
	return false, nil
}

// target picks the principal of operation slot; nil when the inputs
// have run out.
func (w *admitWorkload) target(slot int64) *loadgen.Synthetic {
	if w.cfg.cold {
		if slot >= int64(len(w.order)) {
			return nil
		}
		return w.g.Principals[w.order[slot]]
	}
	return w.g.Principals[w.g.Schedule[slot%int64(len(w.g.Schedule))]]
}

// counters is a snapshot of the program's own counters; a region
// reports their deltas.
type counters struct {
	sigVerifies             int64
	hits, misses            int64
	epoch                   uint64
	remoteQueries           int
	remoteCerts, negHits    int
	cold, warm              uint64
	walAppends, pushed, bad int64
}

func (w *admitWorkload) snapshot() counters {
	cache := core.SharedProofCache()
	ps := w.m.proverStats()
	c := counters{
		sigVerifies: sfkey.SigVerifies(),
		hits:        cache.Hits(), misses: cache.Misses(), epoch: cache.Epoch(),
		remoteQueries: ps.RemoteQueries, remoteCerts: ps.RemoteCerts, negHits: ps.NegCacheHits,
		cold: w.coldHist.Snap().Count, warm: w.warmHist.Snap().Count,
	}
	c.walAppends, c.pushed, c.bad = dirCounters(w.m.dirs)
	return c
}

func (w *admitWorkload) region(dur time.Duration) (*region, error) {
	r := &region{info: map[string]float64{}}
	if w.tr != nil {
		w.tr.reset()
	}
	base := w.snapshot()
	logs := make([]*clientLog, w.cfg.clients)
	var churnLog *churnLog

	r.marks = measure(dur, w.cfg.slices, w.done.Load, func(start, deadline time.Time) {
		var wg sync.WaitGroup
		if w.cfg.churn {
			churnLog = w.startChurn(start, deadline, &wg)
		}
		for i := range logs {
			logs[i] = &clientLog{}
			wg.Add(1)
			go func(log *clientLog) {
				defer wg.Done()
				for time.Now().Before(deadline) {
					slot := w.next.Add(1) - 1
					p := w.target(slot)
					if p == nil {
						return
					}
					t0 := time.Now()
					status, body, err := w.admit(p, w.tr != nil && slot%w.cfg.traceEvery == 0)
					d := time.Since(t0)
					log.attempted++
					if err != nil {
						log.fail("%s: %v", p.Owner, err)
						continue
					}
					admitted, err := w.judge(p, t0, status, body)
					switch {
					case err != nil:
						log.fail("%v", err)
					case admitted:
						log.lat = append(log.lat, sample{at: t0.Sub(start), us: float64(d) / float64(time.Microsecond)})
						w.done.Add(1)
					}
				}
			}(logs[i])
		}
		wg.Wait()
	})
	r.merge(logs...)
	if churnLog != nil {
		r.merge(&churnLog.clientLog)
		r.info["revoke_to_reject_p50_ms"] = median(churnLog.revokeMs)
		r.info["revoke_to_reject_n"] = float64(len(churnLog.revokeMs))
		r.info["churn_flushes"] = float64(churnLog.flushes)
		r.info["churn_lag_p50_ms"] = median(churnLog.lagMs)
	}

	end := w.snapshot()
	ops := float64(max(end.cold+end.warm-base.cold-base.warm, 1))
	queries := end.remoteQueries - base.remoteQueries
	w.layerCounts = map[string]float64{
		"sfkey.sig_verifies_per_op":    float64(end.sigVerifies-base.sigVerifies) / ops,
		"core.proofcache_hit_ratio":    ratio(float64(end.hits-base.hits), float64(end.hits-base.hits+end.misses-base.misses)),
		"core.epoch_bumps":             float64(end.epoch - base.epoch),
		"prover.remote_queries_per_op": float64(queries) / ops,
		"prover.remote_certs_per_query": ratio(float64(end.remoteCerts-base.remoteCerts),
			float64(queries)),
		"prover.negcache_hits": float64(end.negHits - base.negHits),
		"certdir.wal_records":  float64(end.walAppends - base.walAppends),
		"certdir.repl_pushed":  float64(end.pushed - base.pushed),
		"certdir.repl_failed":  float64(end.bad - base.bad),
	}
	for k, v := range w.layerCounts {
		r.info[k] = v
	}

	// Isolation is asserted, not assumed: each workload must have run
	// the path it is named for and no other.
	switch {
	case w.cfg.cold:
		if n := end.warm - base.warm; n > 0 {
			r.failed++
			r.failures = append(r.failures, fmt.Sprintf("isolation: %d admits of the cold workload were classified warm by the gateway", n))
		}
	case !w.cfg.churn:
		if queries > 0 || end.cold > base.cold {
			r.failed++
			r.failures = append(r.failures, fmt.Sprintf("isolation: the warm workload made %d directory queries and %d cold admits in its timed region",
				queries, end.cold-base.cold))
		}
	}
	return r, nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// churnLog is what the background schedule observed.
type churnLog struct {
	clientLog
	flushes  int
	lagMs    []float64 // how late each scheduled action started
	revokeMs []float64 // CRL push to first observed rejection
}

// startChurn launches the fixed-rate invalidation schedule: one
// goroutine publishing-and-revoking throwaway certificates, one
// revoking real victims and watching the revocation bite. Both stop
// at the deadline; wg tracks them.
func (w *admitWorkload) startChurn(start, deadline time.Time, wg *sync.WaitGroup) *churnLog {
	log := &churnLog{}
	var mu sync.Mutex // the two goroutines share log
	churnPrin := principal.KeyOf(w.g.ChurnKey.Public())

	wg.Add(2)
	go func() {
		defer wg.Done()
		for k := 1; ; k++ {
			due := start.Add(time.Duration(k) * w.cfg.flushEvery)
			if !due.Before(deadline) {
				return
			}
			time.Sleep(time.Until(due))
			lag := time.Since(due)
			subj := principal.KeyOf(sfkey.FromSeed([]byte(fmt.Sprintf("bench-%d-churn-%d", w.cfg.seed, k))).Public())
			c, err := cert.Delegate(w.g.ChurnKey, subj, churnPrin, emaildb.OwnerTag("churn"), w.g.Validity)
			if err == nil {
				err = w.m.dirs[k%len(w.m.dirs)].cl.Publish(c)
			}
			if err == nil {
				err = w.m.dirs[(k+1)%len(w.m.dirs)].cl.PushCRL(cert.NewRevocationList(w.g.ChurnKey, w.g.Validity, c.Hash()))
			}
			mu.Lock()
			log.attempted++
			log.flushes++
			log.lagMs = append(log.lagMs, float64(lag)/float64(time.Millisecond))
			if err != nil {
				log.fail("churn flush %d: %v", k, err)
			}
			mu.Unlock()
		}
	}()
	go func() {
		defer wg.Done()
		patience := time.Duration(w.cfg.revokeRounds) * w.cfg.gossip
		for k := 1; ; k++ {
			due := start.Add(time.Duration(k) * w.cfg.victimEvery)
			// A revocation bites within a gossip round or two; one started
			// closer to the deadline than that would only stretch the region.
			if !due.Add(4*w.cfg.gossip).Before(deadline) || w.nextVictim >= len(w.g.Principals)/4 {
				return
			}
			time.Sleep(time.Until(due))
			p := w.g.Principals[len(w.g.Principals)-1-w.nextVictim]
			w.nextVictim++
			var vl clientLog
			ms, ok := w.revoke(p, patience, &vl)
			mu.Lock()
			log.add(&vl)
			if ok {
				log.revokeMs = append(log.revokeMs, ms)
			}
			mu.Unlock()
		}
	}()
	return log
}

// revoke revokes p's grant at the directory that is not p's home, so
// the measured path is the whole pipeline (CRL gossip between
// directories, eviction, invalidation events to the subscribed
// provers, the database's CRL pull), then polls until p is rejected.
// A victim still admitted after patience is a safety failure, as is
// one re-admitted after its first rejection.
func (w *admitWorkload) revoke(p *loadgen.Synthetic, patience time.Duration, log *clientLog) (ms float64, ok bool) {
	v := w.victims[p.Index]
	rl := cert.NewRevocationList(w.g.OrgKeys[p.Org], w.g.Validity, p.Grant.Hash())
	t0 := time.Now()
	v.revokedAt.Store(t0.UnixNano())
	log.attempted++
	if err := w.m.dirs[(p.HomeDir+1)%len(w.m.dirs)].cl.PushCRL(rl); err != nil {
		log.fail("revoke %s: CRL install: %v", p.Owner, err)
		return 0, false
	}
	for time.Since(t0) < patience {
		log.attempted++
		status, _, err := w.admit(p, false)
		if err != nil {
			log.fail("revoke %s: %v", p.Owner, err)
			return 0, false
		}
		if status != http.StatusOK {
			now := time.Now()
			v.deniedAt.Store(now.UnixNano())
			ms, ok = float64(now.Sub(t0))/float64(time.Millisecond), true
			break
		}
		time.Sleep(w.cfg.gossip / 20)
	}
	if !ok {
		log.fail("revoke %s: still admitted %s after revocation", p.Owner, patience)
		return 0, false
	}
	for j := 0; j < 3; j++ {
		log.attempted++
		if status, _, err := w.admit(p, false); err != nil || status == http.StatusOK {
			log.fail("revoke %s: re-admitted after first rejection (status %d, err %v)", p.Owner, status, err)
		}
	}
	return ms, true
}

// finish runs the checks that need the load stopped. For the churn
// workload: every victim stays rejected, a sample of survivors still
// gets in (revocation must neither fail open nor take innocents
// down), and no decision the database made after a victim's observed
// rejection cites the revoked grant.
func (w *admitWorkload) finish() (attempted, failed int64, failures []string) {
	var log clientLog
	if w.cfg.churn {
		// One more gossip round spreads the last CRL everywhere.
		time.Sleep(2 * w.cfg.gossip)
		for i, v := range w.victims {
			if v == nil || v.deniedAt.Load() == 0 {
				continue // never revoked, or already failed in revoke
			}
			p := w.g.Principals[i]
			log.attempted++
			if status, _, err := w.admit(p, false); err != nil || status == http.StatusOK {
				log.fail("victim %s re-admitted after quiesce (status %d, err %v)", p.Owner, status, err)
			}
			for _, msg := range auditCites(w.m.dbSrv.Audit, p, time.Unix(0, v.deniedAt.Load())) {
				log.fail("%s", msg)
			}
		}
		for i := 0; i < min(32, len(w.g.Principals)/2); i++ {
			p := w.g.Principals[i]
			log.attempted++
			status, body, err := w.admit(p, false)
			if err == nil {
				err = checkAdmitted(p, status, body)
			}
			if err != nil {
				log.fail("survivor denied after churn: %v", err)
			}
		}
	}
	return log.attempted, log.failed, log.failures
}

// auditCites returns one message per admit decision in log, made
// after denied, that cites p's revoked grant.
func auditCites(log *obs.AuditLog, p *loadgen.Synthetic, denied time.Time) []string {
	h := p.Grant.Sexp().Hash()
	want := hex.EncodeToString(h[:])
	var out []string
	for _, d := range log.Recent(0) {
		if d.Verdict != obs.VerdictAdmit || !d.Time.After(denied) {
			continue
		}
		for _, ch := range d.CertHashes {
			if ch == want {
				out = append(out, fmt.Sprintf("audit: %s admitted %s citing the revoked grant, %s after its rejection was observed",
					d.Layer, p.Owner, d.Time.Sub(denied)))
			}
		}
	}
	return out
}

func (w *admitWorkload) layers() (map[string]float64, *replayInputs, error) {
	return w.layerCounts, &replayInputs{g: w.g, auth: w.auth}, nil
}
