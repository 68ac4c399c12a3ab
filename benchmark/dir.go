package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cert"
	"repro/internal/certdir"
	"repro/internal/core"
	"repro/internal/principal"
	"repro/internal/sfkey"
	"repro/internal/tag"
)

// firstError keeps the first of the errors concurrent workers hit and
// counts them all.
type firstError struct {
	mu  sync.Mutex
	err error
	n   int
}

func (f *firstError) note(err error) {
	if err == nil {
		return
	}
	f.mu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.n++
	f.mu.Unlock()
}

// mintCorpus signs n distinct certificates from a handful of issuers,
// as a pure function of (seed, label, now), on every core.
func mintCorpus(seed int64, label string, n int, now time.Time) ([]*cert.Cert, error) {
	privs := make([]*sfkey.PrivateKey, 8)
	for i := range privs {
		privs[i] = sfkey.FromSeed([]byte(fmt.Sprintf("bench-%d-%s-iss%d", seed, label, i)))
	}
	subj := principal.KeyOf(sfkey.FromSeed([]byte(fmt.Sprintf("bench-%d-%s-subj", seed, label))).Public())
	v := core.Between(now.Add(-time.Minute), now.Add(12*time.Hour))
	out := make([]*cert.Cert, n)
	var errs firstError
	forEach(nproc(), n, func(i int) {
		priv := privs[i%len(privs)]
		c, err := cert.Delegate(priv, subj, principal.KeyOf(priv.Public()),
			tag.Literal(fmt.Sprintf("%s-r%d", label, i)), v)
		errs.note(err)
		out[i] = c
	})
	return out, errs.err
}

// dirReplayInputs hands the layer replay a small delegation world:
// the directory workloads have none of their own, and the replay
// needs a chain and a signed request.
func dirReplayInputs(seed int64) (*replayInputs, error) {
	g, err := buildGraph(seed, 4, 2, worldClock())
	return &replayInputs{g: g}, err
}

// dirConfig sizes the two directory workloads.
type dirConfig struct {
	seed    int64
	n       int           // dir_publish: pre-minted pool; dir_bootstrap: corpus size
	clients int           // dir_publish: closed-loop publishers
	gossip  time.Duration // dir_publish: anti-entropy period
	slices  int
	minReps int // dir_bootstrap: repetitions at least, whatever the clock says
	workDir string
}

// publishWindow is how many certificates may be acknowledged by A and
// not yet visible at B before the publishers pause. It is well inside
// the replicator's push queue, so the queue never sheds and the
// workload measures the push pipeline's sustained rate, not the
// timer-driven anti-entropy that repairs an overflowing one.
const publishWindow = 256

// publishWorkload is the directory tier's write path: publishers push
// fresh certificates through the wire at directory A; an operation is
// done when the certificate is visible at directory B. The publishers
// are a closed loop over that visibility: each has one publish in
// flight and all pause while publishWindow certificates are in
// transit to the peer.
type publishWorkload struct {
	cfg dirConfig
	tr  *tracer

	pool     []*cert.Cert
	next     atomic.Int64
	dirs     []*meshDir // A, where the publishers publish, and its peer B
	dataRoot string

	layerCounts map[string]float64
}

func (w *publishWorkload) close() {
	for _, d := range w.dirs {
		d.close()
	}
	w.dirs = nil
	if w.dataRoot != "" {
		os.RemoveAll(w.dataRoot)
		w.dataRoot = ""
	}
}

func (w *publishWorkload) setUp() (err error) {
	w.close()
	core.SharedProofCache().Reset()
	if w.pool, err = mintCorpus(w.cfg.seed, "pub", w.cfg.n, worldClock()); err != nil {
		return err
	}
	w.next.Store(0)
	if w.dataRoot, err = os.MkdirTemp(w.cfg.workDir, "publish-"); err != nil {
		return err
	}
	for i := 0; i < 2; i++ {
		dir, err := startDir(filepath.Join(w.dataRoot, fmt.Sprintf("dir%d", i)), w.tr)
		if err != nil {
			return err
		}
		w.dirs = append(w.dirs, dir)
	}
	w.dirs[0].replicateTo(w.cfg.gossip, w.dirs[1])
	w.dirs[1].replicateTo(w.cfg.gossip, w.dirs[0])
	// Warm-up: open the connections both ways before anything is timed.
	warm, err := mintCorpus(w.cfg.seed, "pubwarm", 2*w.cfg.clients, worldClock())
	if err != nil {
		return err
	}
	for _, c := range warm {
		if err := w.dirs[0].cl.Publish(c); err != nil {
			return fmt.Errorf("set-up warm-up: %w", err)
		}
	}
	return w.converge(len(warm))
}

// converge waits until both directories hold want certificates.
func (w *publishWorkload) converge(want int) error {
	deadline := time.Now().Add(40 * w.cfg.gossip)
	for _, d := range w.dirs {
		for d.store.Len() < want {
			if time.Now().After(deadline) {
				return fmt.Errorf("directories did not converge: %d of %d certificates visible", d.store.Len(), want)
			}
			time.Sleep(w.cfg.gossip / 20)
		}
	}
	return nil
}

func (w *publishWorkload) region(dur time.Duration) (*region, error) {
	r := &region{info: map[string]float64{}}
	if w.tr != nil {
		w.tr.reset()
	}
	a, b := w.dirs[0], w.dirs[1]
	baseLen := int64(b.store.Len())
	sig0, hit0, miss0 := sfkey.SigVerifies(), core.SharedProofCache().Hits(), core.SharedProofCache().Misses()
	wal0, push0, bad0 := dirCounters(w.dirs)
	logs := make([]*clientLog, w.cfg.clients)
	visible := func() int64 { return int64(b.store.Len()) - baseLen }
	// The publishers look at B's store only when the last count they
	// saw would close the window: once per window, not once per publish.
	var acked, seen atomic.Int64
	r.marks = measure(dur, w.cfg.slices, visible, func(start, deadline time.Time) {
		var wg sync.WaitGroup
		for i := range logs {
			logs[i] = &clientLog{}
			wg.Add(1)
			go func(log *clientLog) {
				defer wg.Done()
				for time.Now().Before(deadline) {
					if acked.Load()-seen.Load() >= publishWindow {
						if seen.Store(visible()); acked.Load()-seen.Load() >= publishWindow {
							time.Sleep(100 * time.Microsecond)
						}
						continue
					}
					slot := w.next.Add(1) - 1
					if slot >= int64(len(w.pool)) {
						return
					}
					t0 := time.Now()
					err := a.cl.Publish(w.pool[slot])
					d := time.Since(t0)
					log.attempted++
					if err != nil {
						log.fail("publish %d: %v", slot, err)
						continue
					}
					acked.Add(1)
					log.lat = append(log.lat, sample{at: t0.Sub(start), us: float64(d) / float64(time.Microsecond)})
				}
			}(logs[i])
		}
		wg.Wait()
	})
	r.merge(logs...)

	// Every acknowledged publish must become visible at the peer; what
	// the push queue shed is anti-entropy's to repair.
	published := min(w.next.Load(), int64(len(w.pool)))
	t0 := time.Now()
	if err := w.converge(int(baseLen + published)); err != nil {
		r.failed++
		r.failures = append(r.failures, err.Error())
	}
	r.info["visible_lag_ms"] = float64(time.Since(t0)) / float64(time.Millisecond)
	for _, c := range w.pool[:published] {
		if !b.store.HasHash(c.Hash()) {
			r.failed++
			r.failures = append(r.failures, "peer is missing a published certificate")
			break
		}
	}

	wal1, push1, bad1 := dirCounters(w.dirs)
	ops := float64(max(published, 1))
	hits, misses := float64(core.SharedProofCache().Hits()-hit0), float64(core.SharedProofCache().Misses()-miss0)
	w.layerCounts = map[string]float64{
		"sfkey.sig_verifies_per_op": float64(sfkey.SigVerifies()-sig0) / ops,
		"core.proofcache_hit_ratio": ratio(hits, hits+misses),
		"certdir.wal_records":       float64(wal1 - wal0),
		"certdir.repl_pushed":       float64(push1 - push0),
		"certdir.repl_failed":       float64(bad1 - bad0),
	}
	for k, v := range w.layerCounts {
		r.info[k] = v
	}
	return r, nil
}

func (w *publishWorkload) finish() (attempted, failed int64, failures []string) {
	attempted = 1
	if a, b := w.dirs[0].store.MerkleRoot(), w.dirs[1].store.MerkleRoot(); a != b {
		failed, failures = 1, []string{fmt.Sprintf("directories diverge: Merkle roots %d/%x vs %d/%x", a.Count, a.XOR, b.Count, b.XOR)}
	}
	return
}

func (w *publishWorkload) layers() (map[string]float64, *replayInputs, error) {
	in, err := dirReplayInputs(w.cfg.seed)
	return w.layerCounts, in, err
}

// bootstrapWorkload restores a directory two ways from a cold proof
// cache: snapshot bootstrap from a peer over loopback, then
// crash-recovery replay of the data dir that bootstrap journaled.
type bootstrapWorkload struct {
	cfg dirConfig
	tr  *tracer

	src      *certdir.Store
	srv      *http.Server
	url      string
	dataRoot string
	reps     int

	layerCounts map[string]float64
}

func (w *bootstrapWorkload) close() {
	if w.srv != nil {
		w.srv.Close()
		w.srv = nil
	}
	if w.dataRoot != "" {
		os.RemoveAll(w.dataRoot)
		w.dataRoot = ""
	}
}

func (w *bootstrapWorkload) setUp() (err error) {
	w.close()
	core.SharedProofCache().Reset()
	now := time.Now()
	corpus, err := mintCorpus(w.cfg.seed, "boot", w.cfg.n, worldClock())
	if err != nil {
		return err
	}
	if w.dataRoot, err = os.MkdirTemp(w.cfg.workDir, "bootstrap-"); err != nil {
		return err
	}
	w.src = certdir.NewStore(0)
	var errs firstError
	forEach(nproc(), len(corpus), func(i int) {
		_, err := w.src.Publish(corpus[i], now)
		errs.note(err)
	})
	if errs.err != nil {
		return fmt.Errorf("set-up: %d publishes failed, first: %w", errs.n, errs.err)
	}
	svc := certdir.NewService(w.src)
	svc.Obs = w.tr.progRecorder()
	// Serve the snapshot as the daemon does: a pre-written artifact,
	// not a per-request live encode.
	svc.SnapshotPath = filepath.Join(w.dataRoot, certdir.SnapshotFileName)
	if err := certdir.WriteSnapshotFile(svc.SnapshotPath, w.src, nil, now); err != nil {
		return err
	}
	var h http.Handler = svc
	if w.tr != nil {
		h = timedHandler(svc, &w.tr.dirServe)
	}
	w.srv, w.url, err = listen(h)
	return err
}

// checkRestored is the output check of a restored directory: it must
// hold exactly the source's certificates.
func checkRestored(how string, src, got *certdir.Store) error {
	if got.Len() != src.Len() {
		return fmt.Errorf("%s: store holds %d certificates, source holds %d", how, got.Len(), src.Len())
	}
	if a, b := src.MerkleRoot(), got.MerkleRoot(); a != b {
		return fmt.Errorf("%s: Merkle root differs from the source's", how)
	}
	return nil
}

func (w *bootstrapWorkload) region(dur time.Duration) (*region, error) {
	r := &region{info: map[string]float64{}}
	if w.tr != nil {
		w.tr.reset()
	}
	cache := core.SharedProofCache()
	n := int64(w.cfg.n)
	// Marks advance on timed work only: directory creation, checks and
	// clean-up between the two timed calls are not part of the rate.
	cur := mark{}
	r.marks = []mark{cur}
	var bootS, replayS []float64
	var sigs, hits, misses int64
	start := time.Now()
	for rep := 0; ; rep++ {
		if rep >= w.cfg.minReps && time.Since(start) >= dur {
			break
		}
		w.reps++
		dir := filepath.Join(w.dataRoot, fmt.Sprintf("rep%d", w.reps))
		r.attempted += 2

		// (a) An empty durable directory bootstraps from the source.
		cache.Reset()
		st, _, err := certdir.OpenDurable(dir, 0, certdir.SyncNever, time.Now())
		if err != nil {
			return nil, err
		}
		boot := certdir.NewReplicator(st, []*certdir.Client{certdir.NewClient(w.url)})
		m0, sig0 := takeMark(start, 0), sfkey.SigVerifies()
		_, err = boot.BootstrapFromPeer(context.Background())
		m1, bootSigs := takeMark(start, 0), sfkey.SigVerifies()-sig0
		if err == nil {
			err = checkRestored("bootstrap", w.src, st)
		}
		hits, misses = hits+cache.Hits(), misses+cache.Misses()
		st.CloseWAL()
		if err != nil {
			r.failed++
			r.failures = append(r.failures, err.Error())
		}

		// (b) The same data dir is re-opened: crash-recovery replay.
		cache.Reset()
		m2, sig2 := takeMark(start, 0), sfkey.SigVerifies()
		st, _, err = certdir.OpenDurable(dir, 0, certdir.SyncNever, time.Now())
		m3, replaySigs := takeMark(start, 0), sfkey.SigVerifies()-sig2
		if err != nil {
			return nil, err
		}
		if err := checkRestored("replay", w.src, st); err != nil {
			r.failed++
			r.failures = append(r.failures, err.Error())
		}
		hits, misses = hits+cache.Hits(), misses+cache.Misses()
		st.CloseWAL()
		os.RemoveAll(dir)

		// Cold by construction, and asserted: every certificate must have
		// paid its signature check inside the timed call.
		if bootSigs < n || replaySigs < n {
			r.failed++
			r.failures = append(r.failures, fmt.Sprintf(
				"isolation: restoring %d certificates ran %d (bootstrap) and %d (replay) signature checks; a warm verdict leaked in",
				n, bootSigs, replaySigs))
		}
		sigs += bootSigs + replaySigs

		timed := (m1.t - m0.t) + (m3.t - m2.t)
		r.lat = append(r.lat, sample{at: cur.t, us: float64(timed) / float64(time.Microsecond) / float64(2*n)})
		cur = mark{
			t:     cur.t + timed,
			ops:   cur.ops + 2*n,
			cpu:   cur.cpu + (m1.cpu - m0.cpu) + (m3.cpu - m2.cpu),
			alloc: cur.alloc + (m1.alloc - m0.alloc) + (m3.alloc - m2.alloc),
		}
		r.marks = append(r.marks, cur)
		if rep > 0 { // the first repetition is the discarded slice
			bootS = append(bootS, (m1.t - m0.t).Seconds())
			replayS = append(replayS, (m3.t - m2.t).Seconds())
		}
	}
	if len(bootS) > 0 {
		r.info["bootstrap_certs_per_s"] = float64(n) / median(bootS)
		r.info["replay_certs_per_s"] = float64(n) / median(replayS)
	}
	ops := float64(max(cur.ops, 1))
	w.layerCounts = map[string]float64{
		"sfkey.sig_verifies_per_op": float64(sigs) / ops,
		"core.proofcache_hit_ratio": ratio(float64(hits), float64(hits+misses)),
	}
	for k, v := range w.layerCounts {
		r.info[k] = v
	}
	return r, nil
}

func (w *bootstrapWorkload) finish() (attempted, failed int64, failures []string) { return 0, 0, nil }

func (w *bootstrapWorkload) layers() (map[string]float64, *replayInputs, error) {
	in, err := dirReplayInputs(w.cfg.seed)
	return w.layerCounts, in, err
}
