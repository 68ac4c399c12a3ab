package certdir

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cert"
	"repro/internal/obs"
)

// Replicator keeps a Store converged with peer directories in other
// administrative domains, so a delegation published at one domain's
// directory becomes discoverable at another's without every prover
// having to merge directories client-side.
//
// Two mechanisms cooperate:
//
//   - Push-on-publish. Every newly indexed certificate (and every
//     acknowledged removal) is fanned out to all peers immediately,
//     with bounded retry; certificates already queued together travel
//     as one run in one publish request, in queue order with the
//     removals and CRLs around them. Pushes are rumor mongering: a
//     peer that accepts a pushed certificate pushes it onward to its
//     own peers, and the publish dedup (added == false) terminates the
//     flood, so a mesh converges without a routing layer.
//   - Anti-entropy. A periodic round compares Merkle summaries (count
//     and XOR of content hashes per tree node, see merkle.go) with each
//     peer and pulls whatever is missing: the repair path for pushes
//     lost to crashes, queue overflow, or partitions. Locally removed
//     certificates are tombstoned (Store.Tombstoned) and never pulled
//     back; when a round finds a peer still serving a tombstoned
//     certificate, it re-pushes the removal, so retractions — whose
//     push may have been dropped, exhausted its retries, or been
//     refused by the peer — are repaired by anti-entropy exactly like
//     publishes are.
//
// Trust: replication extends availability, not authority. Everything a
// peer supplies goes through Store.indexVerified, which re-verifies the
// signature before indexing — exactly the verify-before-digest
// discipline prover.RemoteSource applies — so a compromised peer can
// withhold delegations but cannot plant them. Under an enforcing
// control plane (Service.Guard) the arrow also points the other way:
// a replicator's pushes are publishes, removes, and CRL installs at
// the peer, so its Clients must carry a CtlSigner (Client.Ctl) whose
// credential the peer's operator delegated — sf-certd wires this from
// -ctl-key/-ctl-cert. Pulls (root, nodes, leaves, fetch, crls) are
// read-only and never need a credential, which is what lets a mesh
// migrate to -admin-auth one node at a time.
type Replicator struct {
	store *Store
	peers []*Client

	// Interval is the anti-entropy period; 0 means
	// DefaultGossipInterval. Set before Start.
	Interval time.Duration
	// Clock supplies the replicator's notion of now; nil means
	// time.Now.
	Clock func() time.Time
	// Logf, when set, receives one line per failed push and failed
	// round (cmd/sf-certd wires log.Printf).
	Logf func(format string, args ...any)
	// Revocations, when set, extends gossip to CRLs themselves: newly
	// installed CRLs fan out to peers (EnqueueCRL), and every
	// anti-entropy round pulls the CRLs this node is missing,
	// verify-before-apply, evicting what each one's signer signed. Set
	// before Start. Without it, revocations still replicate — but only
	// as per-directory tombstones after each node's own sweep, which
	// leaves peers serving the revoked delegation until their own CRL
	// arrives by other means.
	Revocations *cert.RevocationStore
	// RoundHist, when set, observes the wall-clock seconds of each
	// anti-entropy round (Converge).
	RoundHist *obs.Histogram

	// backoff is the wait between push attempts; 0 means
	// pushBackoff. Tests shorten it.
	backoff time.Duration

	queue chan repJob
	stop  chan struct{}
	wg    sync.WaitGroup

	pushes       atomic.Int64
	pushFailures atomic.Int64
	queueDrops   atomic.Int64
	rounds       atomic.Int64
	pulled       atomic.Int64
	pullRejected atomic.Int64
	roundErrors  atomic.Int64
	crlsPulled   atomic.Int64
	crlsRejected atomic.Int64
	digestBytes  atomic.Int64 // summary bytes moved on the Merkle paths (all peers)
	descents     atomic.Int64 // Merkle node-summary round trips
}

// Replication defaults.
const (
	// DefaultGossipInterval is the anti-entropy period. One round per
	// few seconds makes "visible within one gossip round" a human
	// timescale while keeping steady-state cost at a digest exchange
	// per peer.
	DefaultGossipInterval = 5 * time.Second
	// pushAttempts bounds push attempts per peer per mutation.
	// Exhausted attempts are not fatal — the next anti-entropy round
	// repairs the gap.
	pushAttempts = 3
	// pushBackoff is the wait between push attempts.
	pushBackoff = 100 * time.Millisecond
	// pushQueueDepth bounds mutations awaiting fan-out; overflow is
	// dropped (and counted) rather than blocking publishes —
	// anti-entropy repairs whatever the queue sheds.
	pushQueueDepth = 1024
	// fetchBatch bounds hashes per gossip fetch round trip.
	fetchBatch = 64
	// nodeBatch bounds tree-node indexes per Merkle descent round trip.
	nodeBatch = 64
	// leafBatch bounds leaves per Merkle leaf-hash round trip; a full
	// leaf of a 100k-cert store is ~25 hashes, so 16 leaves stay well
	// under the reply bound even for badly skewed stores.
	leafBatch = 16
)

// repJob is one fan-out: a run of publishes (certs non-empty; a
// queued job holds one certificate, a pushed one the run pushLoop
// gathered), a CRL install (crl != nil), or a removal.
type repJob struct {
	certs        []*cert.Cert
	crl          *cert.RevocationList
	removeHash   []byte
	removeExpiry time.Time
}

// ReplicatorStats is a snapshot of replication counters for the stats
// endpoint.
type ReplicatorStats struct {
	Peers        int
	Pushes       int64 // mutations delivered, per peer (a pushed run of n certificates counts n)
	PushFailures int64 // mutations abandoned after all retries, counted like Pushes
	QueueDrops   int64 // mutations shed by a full fan-out queue
	Rounds       int64 // anti-entropy rounds completed
	Pulled       int64 // certificates pulled and indexed by anti-entropy
	PullRejected int64 // pulled certificates refused by verification
	RoundErrors  int64 // per-peer round failures (unreachable peer etc.)
	CRLsPulled   int64 // CRLs pulled and installed by anti-entropy
	CRLsRejected int64 // pulled CRLs refused (bad signature)
	DigestBytes  int64 // anti-entropy summary bytes moved (request + reply)
	Descents     int64 // Merkle node-summary round trips
}

// NewReplicator wires a store to its peers. Tune the exported fields,
// then Start.
func NewReplicator(st *Store, peers []*Client) *Replicator {
	r := &Replicator{store: st, peers: peers}
	for _, p := range peers {
		// Meter every peer's summary traffic into one counter; the
		// sf_gossip_digest_bytes_total metric reads it.
		p.gossipBytes = &r.digestBytes
	}
	return r
}

func (r *Replicator) now() time.Time {
	if r.Clock != nil {
		return r.Clock()
	}
	//sfvet:ignore clockcheck this nil-clock fallback is the Replicator.Clock injection seam itself
	return time.Now()
}

func (r *Replicator) interval() time.Duration {
	if r.Interval > 0 {
		return r.Interval
	}
	return DefaultGossipInterval
}

func (r *Replicator) pushWait() time.Duration {
	if r.backoff > 0 {
		return r.backoff
	}
	return pushBackoff
}

func (r *Replicator) logf(format string, args ...any) {
	if r.Logf != nil {
		r.Logf(format, args...)
	}
}

// Start registers the store hooks and launches the push worker and the
// anti-entropy loop. Call Stop to halt both.
func (r *Replicator) Start() {
	r.queue = make(chan repJob, pushQueueDepth)
	r.stop = make(chan struct{})
	r.store.SetHooks(
		func(c *cert.Cert) { r.enqueue(repJob{certs: []*cert.Cert{c}}) },
		func(hash []byte, expiry time.Time) {
			r.enqueue(repJob{removeHash: hash, removeExpiry: expiry})
		},
	)
	r.wg.Add(2)
	go r.pushLoop()
	go r.gossipLoop()
}

// Stop detaches the hooks and halts the loops, draining nothing: any
// queued push is abandoned to the next anti-entropy round of a
// restarted replicator.
func (r *Replicator) Stop() {
	r.store.SetHooks(nil, nil)
	close(r.stop)
	r.wg.Wait()
}

// enqueue hands a mutation to the push worker without ever blocking
// the publishing goroutine.
func (r *Replicator) enqueue(j repJob) {
	select {
	case r.queue <- j:
	default:
		r.queueDrops.Add(1)
	}
}

// EnqueueCRL fans a newly installed CRL out to every peer (rumor
// mongering, like publishes: an accepting peer pushes it onward, and
// the install dedup terminates the flood). Dropped or failed pushes
// are repaired by the next anti-entropy round's CRL pull. Callers
// install the CRL locally first — the fan-out is availability, the
// local install is what revokes.
func (r *Replicator) EnqueueCRL(rl *cert.RevocationList) {
	if r.queue == nil {
		return // not started: the first anti-entropy round will carry it
	}
	r.enqueue(repJob{crl: rl})
}

// pushLoop fans queued mutations out to every peer with bounded
// retry, in queue order. A publish takes along the publishes already
// queued behind it (gatherRun), so a burst costs one request per peer
// rather than one per certificate, while a lone publish still goes out
// at once. Removals and CRLs go one by one; the job that ends a run is
// pushed right after it.
func (r *Replicator) pushLoop() {
	defer r.wg.Done()
	var (
		j    repJob
		held bool // j ended the previous run and has not been pushed
	)
	for {
		if !held {
			select {
			case <-r.stop:
				return
			case j = <-r.queue:
			}
		}
		run := j
		j, held = r.gatherRun(&run)
		for _, peer := range r.peers {
			r.pushOne(peer, run)
		}
	}
}

// gatherRun extends a publish job with the publish jobs queued right
// behind it, taken without waiting, up to verifyBatch certificates and
// a maxBody request body. The first job taken that does not join the
// run — a removal, a CRL, or a certificate past a bound — is returned
// with held set, to be pushed next.
func (r *Replicator) gatherRun(j *repJob) (next repJob, held bool) {
	if len(j.certs) == 0 {
		return repJob{}, false
	}
	size := certsSexp(j.certs).FormatLen()
	for len(j.certs) < verifyBatch {
		select {
		case next = <-r.queue:
		default:
			return repJob{}, false
		}
		if len(next.certs) == 0 {
			return next, true
		}
		if size += next.certs[0].Sexp().FormatLen(); size > maxBody {
			return next, true
		}
		j.certs = append(j.certs, next.certs[0])
	}
	return repJob{}, false
}

// pushOne delivers one mutation, or one run of publishes as a single
// request, to one peer, retrying failures up to the retry bound with
// backoff between attempts; publish dedup makes a retried run
// idempotent. Pushes and failures count certificates (a run of n
// counts n), so the counters mean the same however runs form.
func (r *Replicator) pushOne(peer *Client, j repJob) {
	n := int64(max(len(j.certs), 1))
	var err error
	for attempt := 0; attempt < pushAttempts; attempt++ {
		if attempt > 0 {
			select {
			case <-r.stop:
				return
			case <-time.After(r.pushWait()):
			}
		}
		switch {
		case len(j.certs) > 0:
			err = peer.Publish(j.certs...)
		case j.crl != nil:
			err = peer.PushCRL(j.crl)
		default:
			_, err = peer.Remove(j.removeHash)
		}
		if err == nil {
			r.pushes.Add(n)
			return
		}
	}
	r.pushFailures.Add(n)
	r.logf("certdir: push to %s failed after %d attempts: %v", peer.BaseURL, pushAttempts, err)
}

// gossipLoop runs anti-entropy rounds until stopped.
func (r *Replicator) gossipLoop() {
	defer r.wg.Done()
	t := time.NewTicker(r.interval())
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			r.Converge()
		}
	}
}

// Converge runs one full anti-entropy round against every peer right
// now, returning how many certificates it pulled and the joined
// per-peer errors (a partially failed round still pulls from the
// reachable peers). The gossip loop calls it on the interval; tests
// and sf-certd's startup call it directly.
func (r *Replicator) Converge() (pulled int, err error) {
	start := time.Now()
	defer r.RoundHist.Since(start)
	var errs []error
	for _, peer := range r.peers {
		// CRLs first: once a peer's CRLs are applied here, the revoked
		// certificates are tombstoned, so the certificate pull that
		// follows in the same round cannot resurrect them.
		if cerr := r.pullCRLs(peer); cerr != nil {
			r.roundErrors.Add(1)
			r.logf("certdir: crl anti-entropy with %s: %v", peer.BaseURL, cerr)
			errs = append(errs, fmt.Errorf("%s: crls: %w", peer.BaseURL, cerr))
		}
		n, perr := r.pullFrom(peer)
		pulled += n
		if perr != nil {
			r.roundErrors.Add(1)
			r.logf("certdir: anti-entropy with %s: %v", peer.BaseURL, perr)
			errs = append(errs, fmt.Errorf("%s: %w", peer.BaseURL, perr))
		}
	}
	r.rounds.Add(1)
	return pulled, errors.Join(errs...)
}

// pullCRLs asks one peer for the CRLs this node is missing and installs
// them (InstallCRLs: verify, evict what each signer signed, rumor
// onward), counting the outcome.
func (r *Replicator) pullCRLs(peer *Client) error {
	if r.Revocations == nil {
		return nil
	}
	res, err := pullMissingCRLs(peer, r.Revocations, r.store, r, r.now())
	r.countCRLs(res)
	return err
}

// countCRLs folds one pulled install into the replication counters.
func (r *Replicator) countCRLs(res CRLInstall) {
	r.crlsPulled.Add(int64(res.Installed))
	r.crlsRejected.Add(int64(res.Rejected))
}

// pullFrom reconciles this store against one peer by Merkle descent:
// root summaries, then a breadth-first descent fetching child
// summaries only under disagreeing nodes, then full hash lists only
// for the leaves that actually differ. A converged pair pays one root
// exchange; a single differing certificate costs O(log n) node
// summaries. A peer that does not serve the endpoints, or whose tree
// shape differs from this node's, cannot be reconciled: the error
// (Converge names the peer) fails the round for that peer and nothing
// is pulled from it.
func (r *Replicator) pullFrom(peer *Client) (pulled int, err error) {
	root, leaves, arity, err := peer.MerkleRoot()
	if err != nil {
		return 0, err
	}
	if leaves != MerkleLeaves || arity != MerkleArity {
		return 0, fmt.Errorf("certdir: peer tree shape (%d leaves, arity %d) differs from ours (%d, %d)",
			leaves, arity, MerkleLeaves, MerkleArity)
	}
	if mine := r.store.MerkleRoot(); mine.Count == root.Count && mine.XOR == root.XOR {
		return 0, nil // converged: one round trip, a few dozen bytes
	}
	// Descend. The frontier holds inner nodes whose summaries disagree
	// AND under which the peer holds something (a subtree empty at the
	// peer has nothing to pull; local-only certificates travel by push
	// or by the peer's own pull).
	frontier := []int{0}
	var diffLeaves []int
	for len(frontier) > 0 {
		var children []int
		for _, idx := range frontier {
			children = merkleChildren(children, idx)
		}
		frontier = frontier[:0]
		for len(children) > 0 {
			batch := children
			if len(batch) > nodeBatch {
				batch = batch[:nodeBatch]
			}
			children = children[len(batch):]
			theirs, err := peer.MerkleNodes(batch)
			if err != nil {
				return pulled, err
			}
			r.descents.Add(1)
			ours := r.store.MerkleSummaries(batch)
			mineAt := make(map[int]MerkleSummary, len(ours))
			for _, m := range ours {
				mineAt[m.Index] = m
			}
			for _, th := range theirs {
				m := mineAt[th.Index]
				if th.Count == 0 || (th.Count == m.Count && th.XOR == m.XOR) {
					continue
				}
				if merkleIsLeaf(th.Index) {
					diffLeaves = append(diffLeaves, th.Index-merkleFirstLeaf)
				} else {
					frontier = append(frontier, th.Index)
				}
			}
		}
	}
	for len(diffLeaves) > 0 {
		batch := diffLeaves
		if len(batch) > leafBatch {
			batch = batch[:leafBatch]
		}
		diffLeaves = diffLeaves[len(batch):]
		byLeaf, err := peer.MerkleLeafHashes(batch)
		if err != nil {
			return pulled, err
		}
		var hashes [][]byte
		for _, hs := range byLeaf {
			hashes = append(hashes, hs...)
		}
		n, err := r.pullHashes(peer, hashes)
		pulled += n
		if err != nil {
			return pulled, err
		}
	}
	return pulled, nil
}

// pullHashes is the tail of a descent: given the content hashes a peer
// serves in the differing leaves, repair tombstoned ones (re-push the
// removal the peer evidently missed), skip what is already indexed,
// and pull the rest in verified batches.
func (r *Replicator) pullHashes(peer *Client, hashes [][]byte) (pulled int, err error) {
	var missing [][]byte
	for _, h := range hashes {
		if r.store.Tombstoned(h) {
			// The peer still serves a delegation retracted here:
			// repair the removal now rather than waiting for a push
			// that already failed or was shed.
			if _, err := peer.Remove(h); err != nil {
				r.pushFailures.Add(1)
				r.logf("certdir: anti-entropy removal to %s: %v", peer.BaseURL, err)
			} else {
				r.pushes.Add(1)
			}
			continue
		}
		if r.store.HasHash(h) {
			continue
		}
		missing = append(missing, h)
	}
	for len(missing) > 0 {
		batch := missing
		if len(batch) > fetchBatch {
			batch = batch[:fetchBatch]
		}
		missing = missing[len(batch):]
		certs, err := peer.Fetch(batch)
		if err != nil {
			return pulled, err
		}
		pulled += r.indexPulled(certs)
	}
	return pulled, nil
}

// indexPulled verifies and indexes certificates a peer supplied
// (Store.indexVerified, yielding to tombstones: a removal that raced
// the pull must win) and counts the outcome.
func (r *Replicator) indexPulled(certs []*cert.Cert) int {
	added, rejected, _ := r.store.indexVerified(certs, r.now(), true, false)
	r.pulled.Add(int64(added))
	r.pullRejected.Add(int64(rejected))
	return added
}

// BootstrapFromPeer cold-starts this directory from the first peer
// that serves a complete snapshot: one bulk verify-before-index
// transfer instead of thousands of gossip round trips. Certificates
// stream through the same verified-batch indexing as gossip pulls (the
// snapshot grants no authority), retractions become local tombstones,
// and CRLs install as one batch at the end. Returns how many
// certificates were adopted; when every peer fails, the joined error
// is returned and the caller proceeds with plain gossip — bootstrap
// is an optimization, never a correctness requirement. State adopted
// from a stream that later turns out truncated is harmless for the
// same reason: everything was verified, and gossip finishes the job.
func (r *Replicator) BootstrapFromPeer(ctx context.Context) (pulled int, err error) {
	var errs []error
	for _, peer := range r.peers {
		n, perr := r.bootstrapFrom(ctx, peer)
		pulled += n
		if perr == nil {
			return pulled, nil
		}
		r.logf("certdir: bootstrap from %s: %v", peer.BaseURL, perr)
		errs = append(errs, fmt.Errorf("%s: %w", peer.BaseURL, perr))
	}
	return pulled, errors.Join(errs...)
}

// bootstrapFrom reads peer's snapshot through replay's frame loop.
// Only the application differs from replay: certificates index as
// gossip pulls do, retractions become adopted tombstones, events are
// skipped, and the CRLs install as one batch at the end.
func (r *Replicator) bootstrapFrom(ctx context.Context, peer *Client) (pulled int, err error) {
	body, err := peer.Snapshot(ctx)
	if err != nil {
		return 0, err
	}
	defer body.Close()
	var lists []*cert.RevocationList
	_, _, _, err = readRecords(body, recordSink{
		snapshot: true,
		publish:  func(batch []*cert.Cert) { pulled += r.indexPulled(batch) },
		remove:   func(hash []byte, expiry time.Time) { r.store.AdoptTombstone(hash, expiry, r.now()) },
		crl:      func(rl *cert.RevocationList) { lists = append(lists, rl) },
		bad:      func(err error) error { return err },
	})
	if err != nil {
		return pulled, fmt.Errorf("certdir: snapshot: %w", err)
	}
	if r.Revocations != nil {
		r.countCRLs(InstallCRLs(r.Revocations, r.store, r, lists, r.now()))
	}
	return pulled, nil
}

// Stats returns a snapshot of the replication counters.
func (r *Replicator) Stats() ReplicatorStats {
	return ReplicatorStats{
		Peers:        len(r.peers),
		Pushes:       r.pushes.Load(),
		PushFailures: r.pushFailures.Load(),
		QueueDrops:   r.queueDrops.Load(),
		Rounds:       r.rounds.Load(),
		Pulled:       r.pulled.Load(),
		PullRejected: r.pullRejected.Load(),
		RoundErrors:  r.roundErrors.Load(),
		CRLsPulled:   r.crlsPulled.Load(),
		CRLsRejected: r.crlsRejected.Load(),
		DigestBytes:  r.digestBytes.Load(),
		Descents:     r.descents.Load(),
	}
}
