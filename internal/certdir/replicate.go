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
// State moves three ways:
//
//   - Follow. One loop per peer long-polls the peer's record stream
//     (events.go) for publishes, removals and CRLs from a cursor, and
//     applies each answer in the peer's log order: publishes index as
//     explicit publishes (they clear tombstones, as a client's publish
//     does), removals go through Store.Remove, CRLs through
//     InstallCRLs. What this store applies lands in its own log, so a
//     chain or a directed ring of follows converges too: C learns A's
//     publish from B's log. Split horizon keeps a record from going
//     straight back where it came from: what this store applies from a
//     peer is tagged in its log with the id that peer's stream carries
//     (Event.from), and a peer that polls with that id (from) is not
//     answered with it. So in a pair that follows each other, each
//     publish crosses once, and the origin's poll stays held while only
//     its own records arrive. A directed ring still brings a record
//     back to its origin once per lap, where a certificate already
//     held is dropped before verification (Stats.Echoes counts it).
//     The cost is one held poll per peer per directory.
//   - Anti-entropy. A periodic round compares Merkle summaries (count
//     and XOR of content hashes per tree node, see merkle.go) with each
//     peer and pulls whatever is missing: the repair path for records
//     a follow could not deliver — shed from a peer's retained tail
//     (the follow then gets a reset and runs one Merkle round with
//     that peer at once) or lost to a restart. Removed certificates
//     are tombstoned (Store.Tombstoned) and never pulled back; when a
//     round finds a peer still serving a certificate removed here, it
//     pushes the removal to the peer, so a retraction the peer missed
//     is repaired by anti-entropy exactly like a publish is. A
//     removal this store only heard of from a peer is not pushed (see
//     Trust).
//   - Snapshot bootstrap (BootstrapFromPeer), for a directory that
//     starts empty.
//
// The first answer of a follow (from cursor 0) and every reset replay
// the peer's retained tail: history this store may already have moved
// past. So do the answers that continue one the peer cut at its bounds,
// up to the first it did not cut (which may also carry a few events
// appended meanwhile). Their publishes therefore index like pulls —
// yielding to a local tombstone — while later answers are live and
// index like publishes. Every row reports the peer's present state (see
// Store.readStream), so a replay never removes what the peer has
// since re-published.
//
// Trust: replication extends availability, not authority. Everything a
// peer supplies goes through Store.indexVerified or InstallCRLs, which
// verify before anything takes effect — exactly the
// verify-before-digest discipline prover.RemoteSource applies — so a
// compromised peer can withhold delegations but cannot plant them.
// Following and Merkle reads are read-only and never need a
// credential, which is what lets a mesh migrate to -admin-auth one
// node at a time. The one write a replicator makes at a peer is the
// removal repair above, a remove at the peer: under an enforcing
// control plane (Service.Guard) its Clients must carry a CtlSigner
// (Client.Ctl) whose credential the peer's operator delegated —
// sf-certd wires this from -ctl-key/-ctl-cert.
//
// Following a peer does mean taking its removals on its word: they go
// through Store.Remove with no control-plane check, so a peer on the
// list — a compromised one included — can retract delegations here
// (never plant one), where under an enforcing control plane a client
// would need a credential from this directory's operator. Listing a
// peer is therefore a trust decision about retractions. Such a removal
// goes out on this store's own stream, which is how a chain or a ring
// of follows converges, but the removal repair never pushes it under
// this directory's credential: a retraction heard from a peer is left
// to the directory where it was made.
type Replicator struct {
	store *Store
	peers []*Client

	// Interval is the anti-entropy period; 0 means
	// DefaultGossipInterval. Set before Start.
	Interval time.Duration
	// Clock supplies the replicator's notion of now; nil means
	// time.Now.
	Clock func() time.Time
	// Logf, when set, receives one line per failed poll, failed
	// removal repair and failed round (sf-certd wires its runtime
	// logger).
	Logf func(format string, args ...any)
	// Revocations, when set, extends replication to CRLs themselves:
	// the crl records each follow reads — the whole set on its first
	// poll and on every reset — are installed verify-before-apply,
	// evicting what each one's signer signed. Set before Start. Without
	// it, the lists are ignored, and revocations still replicate — but only
	// as per-directory tombstones after each node's own sweep, which
	// leaves peers serving the revoked delegation until their own CRL
	// arrives by other means.
	Revocations *cert.RevocationStore
	// RoundHist, when set, observes the wall-clock seconds of each
	// anti-entropy round (Converge).
	RoundHist *obs.Histogram

	loops

	// ids holds, per peer Client, the store id the peer's stream last
	// named (streamBatch.id), so a Merkle round tags what it pulls from
	// that peer as the follow does.
	ids sync.Map

	pushes       atomic.Int64
	pushFailures atomic.Int64
	resets       atomic.Int64
	rounds       atomic.Int64
	pulled       atomic.Int64
	pullRejected atomic.Int64
	echoes       atomic.Int64
	roundErrors  atomic.Int64
	crlsPulled   atomic.Int64
	crlsRejected atomic.Int64
	digestBytes  atomic.Int64 // summary bytes moved on the Merkle paths (all peers)
	descents     atomic.Int64 // Merkle node-summary round trips
}

// Replication defaults.
const (
	// DefaultGossipInterval is the anti-entropy period. One round per
	// few seconds keeps the repair of whatever a follow shed on a human
	// timescale while keeping steady-state cost at a digest exchange
	// per peer.
	DefaultGossipInterval = 5 * time.Second
	// fetchBatch bounds hashes per gossip fetch round trip.
	fetchBatch = 64
	// nodeBatch bounds tree-node indexes per Merkle descent round trip.
	nodeBatch = 64
	// leafBatch bounds leaves per Merkle leaf-hash round trip; a full
	// leaf of a 100k-cert store is ~25 hashes, so 16 leaves stay well
	// under the reply bound even for badly skewed stores.
	leafBatch = 16
)

// ReplicatorStats is a snapshot of replication counters for the stats
// endpoint.
type ReplicatorStats struct {
	Peers        int
	Pushes       int64 // removal repairs delivered to peers by anti-entropy
	PushFailures int64 // removal repairs that failed
	QueueDrops   int64 // follow resets: records shed from a peer's retained tail, repaired by a Merkle round
	Rounds       int64 // anti-entropy rounds completed
	Pulled       int64 // certificates indexed from peers (follow and anti-entropy)
	PullRejected int64 // certificates from peers refused by verification
	Echoes       int64 // publish rows a follow received for certificates already held
	RoundErrors  int64 // per-peer round failures (unreachable peer etc.)
	CRLsPulled   int64 // CRLs installed from peers
	CRLsRejected int64 // CRLs from peers refused (bad signature)
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
		p.gossipBytes.Store(&r.digestBytes)
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

func (r *Replicator) logf(format string, args ...any) {
	if r.Logf != nil {
		r.Logf(format, args...)
	}
}

// Start launches one follow loop per peer and the anti-entropy loop,
// once. Call Stop to halt them.
func (r *Replicator) Start() {
	runs := []func(context.Context){r.gossipLoop}
	for _, peer := range r.peers {
		runs = append(runs, streamFollower{
			client: peer,
			kinds:  []string{EventPublish, EventRemove, EventCRL},
			self:   r.store.id,
			hold:   maxEventWait,
			apply:  func(replay bool, b streamBatch) { r.apply(peer, replay, b) },
			onErr:  func(err error) { r.logf("certdir: following %s: %v", peer.BaseURL, err) },
		}.run)
	}
	r.start(runs...)
}

// Stop halts the loops, cancelling the polls in flight, and waits for
// them to exit.
func (r *Replicator) Stop() { r.stop() }

// apply applies one answer of peer's stream in the peer's log order:
// each run of consecutive publishes indexes as one verified batch, each
// run of lists installs as one batch. What lands in this store's log is
// tagged with the id the answer named (Event.from). replay marks an
// answer that replays the peer's tail (streamFollower.poll). A reset
// means records were shed from the peer's tail (or the peer
// restarted); after its lists are installed, one Merkle round with
// that peer repairs the rest.
func (r *Replicator) apply(peer *Client, replay bool, b streamBatch) {
	r.ids.Store(peer, b.id)
	for rows := b.rows; len(rows) > 0; {
		n := 1
		for n < len(rows) && rows[n].Kind == rows[0].Kind {
			n++
		}
		run := rows[:n]
		rows = rows[n:]
		switch run[0].Kind {
		case EventPublish:
			// A certificate already held is dropped before any signature
			// work: a record come round a ring of follows, one a Merkle
			// round pulled first, or one a peer that does not filter by
			// from (an older directory, or a poll sent without it)
			// echoes.
			var certs []*cert.Cert
			echoes := 0
			for _, row := range run {
				switch {
				case row.cert == nil:
				case r.store.HasHash(row.cert.Hash()):
					echoes++
				default:
					certs = append(certs, row.cert)
				}
			}
			r.echoes.Add(int64(echoes))
			r.index(certs, replay, b.id)
		case EventRemove:
			for _, row := range run {
				r.store.remove(row.Hash, true, b.id)
			}
		case EventCRL:
			if r.Revocations != nil {
				r.countCRLs(installCRLs(r.Revocations, r.store, streamBatch{rows: run}.lists(), r.now(), b.id))
			}
		}
	}
	if b.reset {
		r.resets.Add(1)
		if _, err := r.pullFrom(peer); err != nil {
			r.roundErrors.Add(1)
			r.logf("certdir: anti-entropy with %s after a reset: %v", peer.BaseURL, err)
		}
	}
}

// gossipLoop runs anti-entropy rounds until ctx ends.
func (r *Replicator) gossipLoop(ctx context.Context) {
	t := time.NewTicker(r.interval())
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
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
// and sf-certd's startup call it directly. CRLs are not part of a
// round: a follow's first poll and every reset carry the peer's whole
// set.
func (r *Replicator) Converge() (pulled int, err error) {
	start := time.Now()
	defer r.RoundHist.Since(start)
	var errs []error
	for _, peer := range r.peers {
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

// countCRLs folds one install of lists from a peer into the
// replication counters.
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
	// peer has nothing to pull; local-only certificates travel by the
	// peer's own follow or pull).
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
// serves in the differing leaves, skip tombstoned ones and repair those
// retracted here (push the removal the peer evidently missed), skip
// what is already indexed, and pull the rest in verified batches.
func (r *Replicator) pullHashes(peer *Client, hashes [][]byte) (pulled int, err error) {
	var missing [][]byte
	for _, h := range hashes {
		if t, ok := r.store.tombstone(h); ok {
			// The peer still serves a delegation retracted here: it
			// missed the removal, so push it now. A retraction heard
			// from a peer is left to the directory that made it.
			if t.heard {
				continue
			}
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
		pulled += r.index(certs, true, r.idOf(peer))
	}
	return pulled, nil
}

// idOf returns the store id peer's stream last named, "" if none.
func (r *Replicator) idOf(peer *Client) string {
	id, _ := r.ids.Load(peer)
	s, _ := id.(string)
	return s
}

// index verifies and indexes certificates a peer supplied
// (Store.indexVerified) and counts the outcome. pulled yields to local
// tombstones — a removal that raced a pull must win, and a replayed
// tail is history this store may have moved past — while a live
// follow's publishes are explicit, like a client's. from is the id of
// the peer the certificates came from (Event.from).
func (r *Replicator) index(certs []*cert.Cert, pulled bool, from string) int {
	added, rejected, _ := r.store.indexVerified(certs, r.now(), pulled, false, from)
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
		publish:  func(batch []*cert.Cert) { pulled += r.index(batch, true, "") },
		remove:   func(hash []byte, t tombstone) { r.store.AdoptTombstone(hash, t.expiry, r.now()) },
		crl:      func(rl *cert.RevocationList) { lists = append(lists, rl) },
		bad:      func(err error) error { return err },
	})
	if err != nil {
		return pulled, fmt.Errorf("certdir: snapshot: %w", err)
	}
	if r.Revocations != nil {
		r.countCRLs(InstallCRLs(r.Revocations, r.store, lists, r.now()))
	}
	return pulled, nil
}

// Stats returns a snapshot of the replication counters.
func (r *Replicator) Stats() ReplicatorStats {
	return ReplicatorStats{
		Peers:        len(r.peers),
		Pushes:       r.pushes.Load(),
		PushFailures: r.pushFailures.Load(),
		QueueDrops:   r.resets.Load(),
		Rounds:       r.rounds.Load(),
		Pulled:       r.pulled.Load(),
		PullRejected: r.pullRejected.Load(),
		Echoes:       r.echoes.Load(),
		RoundErrors:  r.roundErrors.Load(),
		CRLsPulled:   r.crlsPulled.Load(),
		CRLsRejected: r.crlsRejected.Load(),
		DigestBytes:  r.digestBytes.Load(),
		Descents:     r.descents.Load(),
	}
}
