// Package prover implements the Prover of paper section 4.4: the
// client-side tool that collects delegations, caches proofs, and
// constructs new delegations on demand.
//
// Delegations live in a graph whose nodes are principals and whose
// edges are proofs of authority from one principal to the next
// (Figure 2). The Prover traverses the graph breadth-first, backwards
// from the required issuer. Nodes backed by a closure — an object
// holding a private key or other means of exercising a principal —
// are "final": the Prover can complete a proof by minting a fresh
// delegation from the controlled principal to the required subject.
//
// Whenever the Prover digests or computes a proof composed of smaller
// components, it records a shortcut edge; these shortcuts form a
// cache that eliminates most deep traversals.
//
// The delegation graph is sharded by issuer principal behind
// read-write locks, so concurrent FindProof calls (the gateway and
// the RMI invoker share one prover) read in parallel and only edge
// insertion takes a write lock on one shard. Expensive closure
// minting (signing) runs outside all locks. The tunable fields
// (MaxDepth, MintTTL, ...) must be set before concurrent use.
//
// The Prover is deliberately incomplete (general access control with
// conjunction and quoting is exponential; Abadi et al. p. 726); it
// handles chains, quoting reductions, and conjunction introduction to
// a bounded depth, which covers the authorization tasks applications
// face.
package prover

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/principal"
	"repro/internal/shard"
	"repro/internal/tag"
)

// Closure represents a principal the application controls, able to
// issue new delegations of that principal's authority (section 4.4:
// "an object that knows the private key or how to exercise the
// capability").
type Closure interface {
	// Principal names the controlled principal.
	Principal() principal.Principal
	// Delegate issues subject =t=> Principal() within v.
	Delegate(subject principal.Principal, t tag.Tag, v core.Validity) (core.Proof, error)
}

// Stats counts the work performed by the Prover; the ablation
// benchmarks report these.
type Stats struct {
	Traversals    int // FindProof invocations (including recursive)
	Expanded      int // nodes popped during BFS
	ShortcutHits  int // goal reached through a cached shortcut edge
	Minted        int // delegations issued through closures
	Swept         int // expired edges evicted by Sweep
	SweptVerdicts int // cached proof-cache verdicts evicted alongside swept edges

	RemoteQueries   int // directory lookups issued
	RemoteCerts     int // fresh proofs digested from directories
	RemoteRejected  int // remote proofs dropped as unverifiable
	NegCacheHits    int // directory lookups skipped by the negative cache
	RemoteFallbacks int // discoveries whose subject-side walk dead-ended into the issuer-side fan-out

	NegCacheEvicted int // fresh negative entries displaced by newer ones (cache overflow)
	Invalidated     int // edges dropped by directory invalidation events
	EventResets     int // subscription stream resets (coarse invalidation fallback)
}

// counters is the internal, concurrency-safe form of Stats.
type counters struct {
	traversals    atomic.Int64
	expanded      atomic.Int64
	shortcutHits  atomic.Int64
	minted        atomic.Int64
	swept         atomic.Int64
	sweptVerdicts atomic.Int64

	remoteQueries   atomic.Int64
	remoteCerts     atomic.Int64
	remoteRejected  atomic.Int64
	negCacheHits    atomic.Int64
	remoteFallbacks atomic.Int64

	negCacheEvicted atomic.Int64
	invalidated     atomic.Int64
	eventResets     atomic.Int64
}

// DefaultEdgeShards is the shard count of the delegation graph's
// issuer index; enough to keep write contention negligible at the
// concurrency levels a single process sees, cheap enough to allocate
// unconditionally.
const DefaultEdgeShards = 16

// edgeShard is one independently locked slice of the issuer index. An
// edge lives in exactly the shard of its conclusion's issuer, and the
// shard's seen set dedups proofs by hash (a proof's issuer determines
// its shard, so the hash can only ever appear here).
type edgeShard struct {
	mu    sync.RWMutex
	edges map[string]*edgeSet // issuer key -> incoming proofs
	seen  map[[32]byte]bool   // digested proof hashes
}

// edgeSet holds one issuer's incoming edges twice over: the full
// insertion-order slice, and a tag-path index (tag.Index) so a search
// for a specific tag visits only the edges whose tag can cover it, in
// insertion order. A hot issuer with thousands of grants — disjoint
// literals, or one (db (owner X)) per principal — costs a lookup the
// grants on its query's tag path (plus star-form grants), not the
// whole fan-in.
type edgeSet struct {
	all []*edge          // every edge, insertion order
	idx tag.Index[*edge] // the same edges, by conclusion tag path
}

func (es *edgeSet) add(e *edge) {
	es.all = append(es.all, e)
	es.idx.Add(e.proof.Conclusion().Tag, e)
}

// filter drops every edge failing keep and rebuilds the tag index; it
// reports the dropped edges. Called under the shard's write lock.
func (es *edgeSet) filter(keep func(*edge) bool) (dropped []*edge) {
	kept := es.all[:0]
	for _, e := range es.all {
		if keep(e) {
			kept = append(kept, e)
		} else {
			dropped = append(dropped, e)
		}
	}
	for i := len(kept); i < len(es.all); i++ {
		es.all[i] = nil
	}
	if len(dropped) == 0 {
		return nil
	}
	es.all = kept
	es.idx = tag.Index[*edge]{}
	for _, e := range kept {
		es.idx.Add(e.proof.Conclusion().Tag, e)
	}
	return dropped
}

// Prover maintains the delegation graph.
type Prover struct {
	shards []*edgeShard

	cmu      sync.RWMutex
	closures map[string]Closure

	rmu      sync.Mutex
	remotes  []RemoteSource
	negCache map[string]time.Time // tag-qualified query key -> time it came back empty

	// DisableShortcuts turns off the proof cache (ablation).
	DisableShortcuts bool
	// MaxDepth bounds recursive quoting/conjunction reductions.
	MaxDepth int
	// MintTTL bounds the validity of freshly minted delegations.
	MintTTL time.Duration
	// NegativeTTL is how long an empty directory answer suppresses
	// re-asking the same question; zero means DefaultNegativeTTL.
	NegativeTTL time.Duration
	// VerdictCache is the verified-proof cache whose verdicts Sweep
	// evicts alongside the edges it drops (so a swept edge does not
	// linger as a warm verdict until its validity or the next epoch
	// bump); nil means the process-wide shared cache.
	VerdictCache *core.ProofCache
	// RemoteHist, when set, observes the wall-clock seconds each
	// remote discovery (findRemote) takes — the cold-proof-discovery
	// latency signal.
	RemoteHist *obs.Histogram

	stats counters
}

type edge struct {
	subject  principal.Principal
	subjectK string // subject.Key(), computed once: the search reads it per scanned edge
	issuer   principal.Principal
	proof    core.Proof
	shortcut bool
	hash     [32]byte
	expiry   time.Time // conclusion's NotAfter; zero when unbounded
	leaves   [][]byte  // body hashes of the proof's certificate leaves, for Invalidate
}

// New returns an empty Prover.
func New() *Prover {
	p := &Prover{
		shards:   make([]*edgeShard, DefaultEdgeShards),
		closures: make(map[string]Closure),
		negCache: make(map[string]time.Time),
		MaxDepth: 4,
		MintTTL:  10 * time.Minute,
	}
	for i := range p.shards {
		p.shards[i] = &edgeShard{
			edges: make(map[string]*edgeSet),
			seen:  make(map[[32]byte]bool),
		}
	}
	return p
}

// shardFor picks the shard holding edges into the given issuer.
func (p *Prover) shardFor(issuerKey string) *edgeShard {
	return p.shards[shard.Index(issuerKey, len(p.shards))]
}

// AddClosure registers a controlled principal.
func (p *Prover) AddClosure(c Closure) {
	p.cmu.Lock()
	defer p.cmu.Unlock()
	p.closures[c.Principal().Key()] = c
}

// closureFor looks up the closure controlling a principal, if any.
func (p *Prover) closureFor(key string) (Closure, bool) {
	p.cmu.RLock()
	defer p.cmu.RUnlock()
	c, ok := p.closures[key]
	return c, ok
}

// closurePrincipals lists the controlled principals in key order.
func (p *Prover) closurePrincipals() []principal.Principal {
	p.cmu.RLock()
	keys := make([]string, 0, len(p.closures))
	for k := range p.closures {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]principal.Principal, len(keys))
	for i, k := range keys {
		out[i] = p.closures[k].Principal()
	}
	p.cmu.RUnlock()
	return out
}

// AddProof digests a proof into the graph: every lemma (subproof)
// becomes an edge, and composite lemmas additionally become shortcut
// edges for their overall conclusions (section 4.4).
func (p *Prover) AddProof(pr core.Proof) {
	for _, lemma := range core.Lemmas(pr) {
		p.addEdge(lemma, len(lemma.Children()) > 0)
	}
}

// addEdge inserts one proof as a graph edge, deduplicating by proof
// hash within the issuer's shard; it reports whether the edge was
// new.
func (p *Prover) addEdge(pr core.Proof, shortcut bool) bool {
	h := pr.Sexp().Hash()
	c := pr.Conclusion()
	ik := c.Issuer.Key()
	e := &edge{
		subject: c.Subject, subjectK: c.Subject.Key(), issuer: c.Issuer, proof: pr,
		shortcut: shortcut, hash: h, expiry: c.Validity.NotAfter,
		leaves: leafHashes(pr, nil),
	}
	sh := p.shardFor(ik)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.seen[h] {
		return false
	}
	sh.seen[h] = true
	es := sh.edges[ik]
	if es == nil {
		es = &edgeSet{}
		sh.edges[ik] = es
	}
	es.add(e)
	return true
}

// edgesFor returns a snapshot, in insertion order, of the edges into
// the given issuer that could cover want: the tag index's candidates,
// or the full fan-in when want is not indexable. The copy is taken
// under the shard's read lock, so BFS walks a consistent slice while
// writers append concurrently. The narrowing is sound, not just fast:
// tag.Index never omits an edge whose tag covers an indexable want.
func (p *Prover) edgesFor(issuerKey string, want tag.Tag) []*edge {
	sh := p.shardFor(issuerKey)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	es := sh.edges[issuerKey]
	if es == nil {
		return nil
	}
	if out, ok := es.idx.Candidates(want); ok {
		return out
	}
	return append([]*edge(nil), es.all...)
}

// Stats returns a copy of the work counters.
func (p *Prover) Stats() Stats {
	return Stats{
		Traversals:      int(p.stats.traversals.Load()),
		Expanded:        int(p.stats.expanded.Load()),
		ShortcutHits:    int(p.stats.shortcutHits.Load()),
		Minted:          int(p.stats.minted.Load()),
		Swept:           int(p.stats.swept.Load()),
		SweptVerdicts:   int(p.stats.sweptVerdicts.Load()),
		RemoteQueries:   int(p.stats.remoteQueries.Load()),
		RemoteCerts:     int(p.stats.remoteCerts.Load()),
		RemoteRejected:  int(p.stats.remoteRejected.Load()),
		NegCacheHits:    int(p.stats.negCacheHits.Load()),
		RemoteFallbacks: int(p.stats.remoteFallbacks.Load()),

		NegCacheEvicted: int(p.stats.negCacheEvicted.Load()),
		Invalidated:     int(p.stats.invalidated.Load()),
		EventResets:     int(p.stats.eventResets.Load()),
	}
}

// EdgeCount returns the number of edges in the graph.
func (p *Prover) EdgeCount() int {
	n := 0
	for _, sh := range p.shards {
		sh.mu.RLock()
		for _, es := range sh.edges {
			n += len(es.all)
		}
		sh.mu.RUnlock()
	}
	return n
}

// Sweep evicts every edge whose conclusion expired before now —
// including its dedup entry, so a re-delegated equivalent proof can
// re-enter, and its cached proof-cache verdict, so the swept proof
// does not linger as a warm verdict — and prunes stale negative-cache
// entries. Long-running digesters (the gateway digests a proof per
// client) call this periodically so the graph tracks the live
// delegation set instead of growing without bound. It returns the
// number of edges evicted.
func (p *Prover) Sweep(now time.Time) int {
	evicted := 0
	verdicts := 0
	cache := p.VerdictCache
	if cache == nil {
		cache = core.SharedProofCache()
	}
	for _, sh := range p.shards {
		sh.mu.Lock()
		for ik, es := range sh.edges {
			dropped := es.filter(func(e *edge) bool {
				return e.expiry.IsZero() || !e.expiry.Before(now)
			})
			for _, e := range dropped {
				delete(sh.seen, e.hash)
				if cache.Evict(e.hash) {
					verdicts++
				}
				evicted++
			}
			if len(es.all) == 0 {
				delete(sh.edges, ik)
			}
		}
		sh.mu.Unlock()
	}
	p.rmu.Lock()
	for k, t := range p.negCache {
		if now.Sub(t) >= p.negTTL() {
			delete(p.negCache, k)
		}
	}
	p.rmu.Unlock()
	p.stats.swept.Add(int64(evicted))
	p.stats.sweptVerdicts.Add(int64(verdicts))
	return evicted
}

// FindProof finds or constructs a proof that subject speaks for
// issuer regarding want, valid at now. It searches existing
// delegations first and completes proofs through closures when the
// chain reaches a controlled principal. When the local graph
// dead-ends and remote sources are registered (AddRemote), it fetches
// candidate delegations from them and retries — the hot local path
// never touches the network.
//
// FindProof is safe for concurrent use and concurrent calls do not
// serialize: the search reads per-shard snapshots of the graph, and
// only minting or digesting a new edge briefly write-locks one shard.
func (p *Prover) FindProof(subject, issuer principal.Principal, want tag.Tag, now time.Time) (core.Proof, error) {
	return p.FindProofCtx(context.Background(), subject, issuer, want, now)
}

// FindProofCtx is FindProof carrying a context: when ctx holds an
// active obs span, remote discovery records a "prover.remote" child
// span and directory fetches propagate the trace on the wire, so one
// cold admit renders as a single tree across processes.
func (p *Prover) FindProofCtx(ctx context.Context, subject, issuer principal.Principal, want tag.Tag, now time.Time) (core.Proof, error) {
	proof, err := p.find(subject, issuer, want, now, p.MaxDepth)
	if err == nil {
		return proof, nil
	}
	p.rmu.Lock()
	hasRemotes := len(p.remotes) > 0
	p.rmu.Unlock()
	if !hasRemotes {
		return nil, err
	}
	ctx, span := obs.StartSpan(ctx, "prover.remote")
	span.SetAttr("subject", subject.String())
	span.SetAttr("issuer", issuer.String())
	start := time.Now()
	proof, err = p.findRemote(ctx, subject, issuer, want, now, err)
	p.RemoteHist.Since(start)
	span.Fail(err)
	span.End()
	return proof, err
}

func (p *Prover) find(subject, issuer principal.Principal, want tag.Tag, now time.Time, depth int) (core.Proof, error) {
	p.stats.traversals.Add(1)
	if depth < 0 {
		return nil, fmt.Errorf("prover: search depth exhausted")
	}
	if principal.Equal(subject, issuer) {
		return core.NewReflex(subject), nil
	}

	type reach struct {
		node principal.Principal
		key  string // node.Key()
		// proof of node => issuer; nil at the issuer itself.
		path core.Proof
		// hops counts graph edges on the path; single-hop results are
		// already edges and need no shortcut recording.
		hops int
	}
	issuerK, subjectK := issuer.Key(), subject.Key()
	visited := map[string]bool{issuerK: true}
	queue := []reach{{node: issuer, key: issuerK}}

	// tryComplete attempts to finish the proof at a reached node. It
	// runs with no locks held: minting through a closure is a signing
	// operation and must not serialize concurrent searches.
	tryComplete := func(r reach) (core.Proof, bool) {
		// (a) Reached the subject itself.
		if r.key == subjectK && r.path != nil {
			return r.path, true
		}
		// (b) Reached a final (closure-backed) node: mint the last hop.
		if cl, ok := p.closureFor(r.key); ok {
			minted, err := cl.Delegate(subject, want, core.Between(now.Add(-time.Minute), now.Add(p.MintTTL)))
			if err == nil {
				p.stats.minted.Add(1)
				p.addEdge(minted, false)
				if r.path == nil {
					return minted, true
				}
				if tr, err := core.NewTransitivity(minted, r.path); err == nil {
					return tr, true
				}
			}
		}
		// (c) Quoting reductions.
		if nq, ok := r.node.(principal.Quote); ok {
			if sq, ok := subject.(principal.Quote); ok {
				// Same quotee: X|C => A|C reduces to X => A.
				if principal.Equal(sq.Quotee, nq.Quotee) && !principal.Equal(sq.Quoter, nq.Quoter) {
					if sub, err := p.find(sq.Quoter, nq.Quoter, want, now, depth-1); err == nil {
						lift := core.NewQuoteQuoterMono(nq.Quotee, sub)
						if r.path == nil {
							return lift, true
						}
						if tr, err := core.NewTransitivity(lift, r.path); err == nil {
							return tr, true
						}
					}
				}
				// Same quoter: Q|Y => Q|B reduces to Y => B.
				if principal.Equal(sq.Quoter, nq.Quoter) && !principal.Equal(sq.Quotee, nq.Quotee) {
					if sub, err := p.find(sq.Quotee, nq.Quotee, want, now, depth-1); err == nil {
						lift := core.NewQuoteQuoteeMono(nq.Quoter, sub)
						if r.path == nil {
							return lift, true
						}
						if tr, err := core.NewTransitivity(lift, r.path); err == nil {
							return tr, true
						}
					}
				}
			}
		}
		// (d) Conjunction introduction: prove subject => each part.
		if conj, ok := r.node.(principal.Conj); ok {
			k := conj.K
			if k == 0 {
				k = len(conj.Parts)
			}
			var parts []core.Proof
			for _, member := range conj.Parts {
				if sub, err := p.find(subject, member, want, now, depth-1); err == nil {
					parts = append(parts, sub)
					if len(parts) >= k {
						break
					}
				}
			}
			if len(parts) >= k {
				if ci, err := core.NewConjIntro(conj, parts); err == nil {
					if r.path == nil {
						return ci, true
					}
					if tr, err := core.NewTransitivity(ci, r.path); err == nil {
						return tr, true
					}
				}
			}
		}
		return nil, false
	}

	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		p.stats.expanded.Add(1)
		if proof, ok := tryComplete(cur); ok {
			// Cache multi-hop compositions as shortcut edges (the
			// dotted edges of Figure 2); single-hop results are the
			// edges themselves.
			if cur.hops > 1 || (cur.hops == 1 && !principal.Equal(proof.Conclusion().Subject, cur.node)) {
				p.recordShortcut(proof)
			}
			return proof, nil
		}
		for _, e := range p.edgesFor(cur.key, want) {
			if p.DisableShortcuts && e.shortcut {
				continue
			}
			if visited[e.subjectK] {
				continue
			}
			ec := e.proof.Conclusion()
			if !tag.Covers(ec.Tag, want) || !ec.Validity.Contains(now) {
				continue
			}
			var path core.Proof
			if cur.path == nil {
				path = e.proof
			} else {
				tr, err := core.NewTransitivity(e.proof, cur.path)
				if err != nil {
					continue
				}
				path = tr
			}
			if e.shortcut {
				p.stats.shortcutHits.Add(1)
			}
			visited[e.subjectK] = true
			queue = append(queue, reach{node: e.subject, key: e.subjectK, path: path, hops: cur.hops + 1})
		}
	}
	return nil, fmt.Errorf("prover: no proof that %s speaks for %s regarding %s",
		subject, issuer, want)
}

// recordShortcut caches a composed proof as a shortcut edge (the
// dotted edges of Figure 2).
func (p *Prover) recordShortcut(pr core.Proof) {
	if p.DisableShortcuts || len(pr.Children()) == 0 {
		return
	}
	p.addEdge(pr, true)
}

// Controls reports whether the prover holds a closure for pr.
func (p *Prover) Controls(pr principal.Principal) bool {
	_, ok := p.closureFor(pr.Key())
	return ok
}

// Delegate issues a fresh delegation from a controlled principal
// without a graph search; the RMI invoker uses this to push authority
// onto a newly established channel (Figure 4 step m). The signing
// itself runs outside all prover locks.
func (p *Prover) Delegate(from principal.Principal, subject principal.Principal, t tag.Tag, v core.Validity) (core.Proof, error) {
	cl, ok := p.closureFor(from.Key())
	if !ok {
		return nil, fmt.Errorf("prover: no closure for %s", from)
	}
	minted, err := cl.Delegate(subject, t, v)
	if err != nil {
		return nil, err
	}
	p.stats.minted.Add(1)
	p.addEdge(minted, false)
	return minted, nil
}

// Principals returns every node currently in the graph; for
// inspection and the proxy's delegation UI.
func (p *Prover) Principals() []principal.Principal {
	seen := map[string]principal.Principal{}
	for _, sh := range p.shards {
		sh.mu.RLock()
		for _, es := range sh.edges {
			for _, e := range es.all {
				seen[e.subjectK] = e.subject
				seen[e.issuer.Key()] = e.issuer
			}
		}
		sh.mu.RUnlock()
	}
	p.cmu.RLock()
	for _, c := range p.closures {
		seen[c.Principal().Key()] = c.Principal()
	}
	p.cmu.RUnlock()
	out := make([]principal.Principal, 0, len(seen))
	for _, pr := range seen {
		out = append(out, pr)
	}
	return out
}
