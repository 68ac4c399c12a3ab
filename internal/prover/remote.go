package prover

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/principal"
	"repro/internal/tag"
)

// RemoteSource is a store of delegations outside this process — a
// certificate directory (certdir.Client implements this), a name
// service, a gossip peer. The Prover consults sources only after the
// local delegation graph dead-ends, so local proving stays
// network-free. It asks by subject first, walking up from the
// requester's end of the chain, and by issuer only when that walk
// dead-ends (see findRemote).
//
// Sources supply candidate proofs; they are not trusted. Every
// fetched proof is verified before it is digested into the graph, so
// a compromised directory can withhold delegations (denial of
// service) but cannot plant authority.
//
// Every question carries the tag the prover is searching for — only
// delegations whose tag covers it can ever become usable edges (see
// reachable) — and a fetch cap, so a heavy issuer does not ship
// thousands of irrelevant delegations per query. It also carries the
// search's context: certdir.Client propagates the context's obs trace
// as the Sf-Trace header and honors its cancellation.
//
// Implementations must be safe for concurrent use: the prover fans
// queries out in parallel.
type RemoteSource interface {
	// ByIssuerForCtx returns proofs whose conclusion issuer is the
	// given principal — the delegations extending its authority — and
	// whose conclusion tag covers want, truncated to limit (0 =
	// unbounded).
	ByIssuerForCtx(ctx context.Context, issuer principal.Principal, want tag.Tag, limit int) ([]core.Proof, error)
	// BySubjectForCtx is the subject-side counterpart: the delegations
	// the given principal can exercise. Discovery's first questions
	// are these.
	BySubjectForCtx(ctx context.Context, subject principal.Principal, want tag.Tag, limit int) ([]core.Proof, error)
}

// Remote-discovery bounds.
const (
	DefaultNegativeTTL = 30 * time.Second
	// DefaultRemoteFanout caps directory queries per FindProof call,
	// subject-side and issuer-side together.
	DefaultRemoteFanout = 32
	// DefaultRemoteRounds caps the issuer-side fallback rounds per
	// FindProof call; each can extend the issuer frontier by one hop.
	// Subject-side rounds are bounded by the fanout alone: each asks
	// at least one question never asked before in the call.
	DefaultRemoteRounds = 4
	// DefaultRemoteLimit caps certificates fetched per directory query.
	// A productive round needs only the edges that extend the frontier;
	// 256 covers realistic issuer fan-out while bounding the damage a
	// certificate-spamming issuer can do to discovery latency.
	DefaultRemoteLimit = 256
)

// negCacheMax bounds the negative cache: at the bound, recording a
// new miss first prunes expired entries, then evicts the oldest —
// the incoming key is the freshest fact and is always inserted (see
// cacheNegative).
const negCacheMax = 4096

// AddRemote registers a remote delegation source. Multiple sources
// are queried in registration order and their answers merged.
func (p *Prover) AddRemote(r RemoteSource) {
	p.rmu.Lock()
	defer p.rmu.Unlock()
	p.remotes = append(p.remotes, r)
}

// tallyKey keys the per-context query counter of WithQueryTally.
type tallyKey struct{}

// WithQueryTally returns a context under which every proof search
// adds the directory queries it issues to the returned counter. A
// caller serving one request learns the discovery that request caused,
// which Stats().RemoteQueries cannot tell apart from the discovery of
// requests running beside it.
func WithQueryTally(ctx context.Context) (context.Context, *atomic.Int64) {
	n := new(atomic.Int64)
	return context.WithValue(ctx, tallyKey{}, n), n
}

// remoteQuery is one directory question: an axis ("i" by issuer, "s"
// by subject) and a principal.
type remoteQuery struct {
	axis string
	prin principal.Principal
}

func (q remoteQuery) key() string { return q.axis + "|" + q.prin.Key() }

// negKey is the negative-cache key for q under a search tag. The tag
// must qualify the key: sources answer "nothing for THIS tag", so an
// empty reply to (issuer, tag A) says nothing about (issuer, tag B) —
// caching it tag-blind would suppress the B query
// and fail proofs whose certificates are sitting in the directory.
func (q remoteQuery) negKey(want tag.Tag) string {
	return q.key() + "|" + string(want.Sexp().Canonical())
}

// remoteAnswer collects the merged replies to one query. answered is
// false when every source errored, so an unreachable directory is
// never mistaken for a genuinely empty answer.
type remoteAnswer struct {
	proofs   []core.Proof
	answered bool
}

// findRemote runs bounded fetch-then-research rounds after a local
// miss, walking up from the subject first: a chain is built from the
// delegations the requester holds, so the first questions ask what
// the subject — and every principal its closures reach from it for
// free (subjectStarts) — can exercise. Each subject-side round asks
// by subject for the nodes not yet asked, digests the verified
// answers, and makes the issuers of the usable edges among them the
// next round's nodes, whether this search digested them or a search
// running beside it did first; only verified edges steer, so a forged
// answer cannot choose a question. When a round has no subject-side
// node left to ask, the walk falls back to the issuer side: a
// by-issuer question for every principal reachable backwards from
// the issuer (find's frontier), growing the frontier at least one
// hop per productive round, so a k-hop chain only the issuer side can
// see needs at most k issuer rounds. Local search re-runs after every
// productive round (one with a verified answer). No prover lock is
// held across network fetches.
func (p *Prover) findRemote(ctx context.Context, subject, issuer principal.Principal, want tag.Tag, now time.Time, localErr error) (core.Proof, error) {
	budget := DefaultRemoteFanout
	asked := make(map[string]bool) // queries spent during this call
	upward := p.subjectStarts(subject)
	issuerRounds := 0
	err := localErr
	for budget > 0 {
		queries := p.planQueries(upward, want, now, asked, &budget)
		fallback := len(queries) == 0
		if fallback {
			if issuerRounds == DefaultRemoteRounds {
				break
			}
			if issuerRounds == 0 {
				p.stats.remoteFallbacks.Add(1)
			}
			issuerRounds++
			queries = p.planQueries(p.issuerFrontier(issuer, want, now), want, now, asked, &budget)
			if len(queries) == 0 {
				break
			}
		}
		p.rmu.Lock()
		remotes := append([]RemoteSource(nil), p.remotes...)
		p.rmu.Unlock()
		answers := fetchAll(ctx, remotes, queries, want)

		asks := int64(len(queries) * len(remotes))
		p.stats.remoteQueries.Add(asks)
		if t, ok := ctx.Value(tallyKey{}).(*atomic.Int64); ok {
			t.Add(asks)
		}
		upward = nil
		verified := 0
		for i, q := range queries {
			if len(answers[i].proofs) == 0 {
				if answers[i].answered {
					p.cacheNegative(q.negKey(want), now)
				}
				continue
			}
			for _, pr := range p.digestRemote(answers[i].proofs, now) {
				verified++
				if c := pr.Conclusion(); !fallback && tag.Covers(c.Tag, want) && c.Validity.Contains(now) {
					upward = append(upward, remoteQuery{axis: "s", prin: c.Issuer})
				}
			}
		}
		if verified == 0 {
			if fallback {
				break
			}
			// An empty subject-side round costs the issuer side none
			// of its rounds: the next round falls back.
			continue
		}
		var proof core.Proof
		proof, err = p.find(subject, issuer, want, now, p.MaxDepth)
		if err == nil {
			return proof, nil
		}
	}
	return nil, err
}

// subjectStarts lists the walk's first questions: the subject, then
// every principal the prover reaches from it for free through a
// closure. A closure G mints S => G for a plain subject S; for a
// quoted subject X|C, find's quoting reduction plus that mint proves
// X|C => G|C. Closures come in key order, so a budget that cannot
// cover them all cuts the list the same way every time.
func (p *Prover) subjectStarts(subject principal.Principal) []remoteQuery {
	out := []remoteQuery{{axis: "s", prin: subject}}
	q, quoted := subject.(principal.Quote)
	for _, g := range p.closurePrincipals() {
		if quoted {
			g = principal.QuoteOf(g, q.Quotee)
		}
		out = append(out, remoteQuery{axis: "s", prin: g})
	}
	return out
}

// planQueries chooses this round's directory questions from the
// candidates, in order, skipping questions already asked this call or
// freshly answered empty, until the call's budget runs out.
func (p *Prover) planQueries(candidates []remoteQuery, want tag.Tag, now time.Time, asked map[string]bool, budget *int) []remoteQuery {
	p.rmu.Lock()
	defer p.rmu.Unlock()
	var out []remoteQuery
	for _, q := range candidates {
		if *budget <= 0 {
			break
		}
		if asked[q.key()] {
			continue
		}
		if t, ok := p.negCache[q.negKey(want)]; ok {
			if now.Sub(t) < p.negTTL() {
				p.stats.negCacheHits.Add(1)
				continue
			}
			delete(p.negCache, q.negKey(want))
		}
		asked[q.key()] = true
		*budget--
		out = append(out, q)
	}
	return out
}

// issuerFrontier is the fallback's question list: a by-issuer
// question for every principal reachable backwards from issuer
// through usable edges (the BFS frontier of find), in BFS order
// starting at the issuer itself. The subject's by-subject question is
// always among the walk's first, so the fallback need not repeat it.
// It reads per-shard snapshots, like the search it mirrors.
func (p *Prover) issuerFrontier(issuer principal.Principal, want tag.Tag, now time.Time) []remoteQuery {
	issuerK := issuer.Key()
	visited := map[string]bool{issuerK: true}
	order := []remoteQuery{{axis: "i", prin: issuer}}
	keys := []string{issuerK}
	for i := 0; i < len(order); i++ {
		for _, e := range p.edgesFor(keys[i], want) {
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
			visited[e.subjectK] = true
			order = append(order, remoteQuery{axis: "i", prin: e.subject})
			keys = append(keys, e.subjectK)
		}
	}
	return order
}

// fetchAll runs every query against every remote concurrently, with
// no prover lock held, merging answers per query. Each source is
// asked only for delegations covering the search tag, capped at
// DefaultRemoteLimit. Source errors mark the (query, source) pair
// unanswered: an unreachable directory degrades discovery for a
// round, it neither fails proving nor poisons the negative cache.
func fetchAll(ctx context.Context, remotes []RemoteSource, queries []remoteQuery, want tag.Tag) []remoteAnswer {
	answers := make([]remoteAnswer, len(queries))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i, q := range queries {
		for _, r := range remotes {
			wg.Add(1)
			go func(i int, q remoteQuery, r RemoteSource) {
				defer wg.Done()
				var (
					got []core.Proof
					err error
				)
				switch q.axis {
				case "i":
					got, err = r.ByIssuerForCtx(ctx, q.prin, want, DefaultRemoteLimit)
				default:
					got, err = r.BySubjectForCtx(ctx, q.prin, want, DefaultRemoteLimit)
				}
				if err != nil {
					return
				}
				mu.Lock()
				answers[i].answered = true
				answers[i].proofs = append(answers[i].proofs, got...)
				mu.Unlock()
			}(i, q, r)
		}
	}
	wg.Wait()
	return answers
}

// digestRemote verifies fetched proofs and installs the good ones as
// graph edges, returning every one that verified, new or already
// held: a search running beside this one may have digested the same
// answer first, and this search must still steer by it and search
// again locally. Verification
// consults the shared verified-proof cache: a delegation fetched by
// several concurrent searches (or previously screened by another
// layer) costs one signature check process-wide.
func (p *Prover) digestRemote(proofs []core.Proof, now time.Time) []core.Proof {
	ctx := core.NewVerifyContext()
	ctx.Now = now
	ctx.Cache = core.SharedProofCache()
	// Revalidation demands are deferred to the relying verifier; the
	// prover only screens out proofs that can never verify.
	ctx.Revalidate = func([]byte, string) error { return nil }
	var good []core.Proof
	for _, pr := range proofs {
		if pr == nil {
			continue
		}
		if err := pr.Verify(ctx); err != nil {
			p.stats.remoteRejected.Add(1)
			continue
		}
		if p.addEdge(pr, false) {
			p.stats.remoteCerts.Add(1)
		}
		good = append(good, pr)
	}
	return good
}

func (p *Prover) negTTL() time.Duration {
	if p.NegativeTTL > 0 {
		return p.NegativeTTL
	}
	return DefaultNegativeTTL
}

// cacheNegative records an empty directory answer, pruning expired
// entries when full and evicting the oldest entries when pruning
// frees nothing. The new key is always inserted: it is the freshest
// fact the cache holds, and refusing it (the old behavior) meant a
// hot missing issuer re-queried the directory on every FindProof for
// as long as the cache stayed full of still-fresh strangers.
func (p *Prover) cacheNegative(key string, now time.Time) {
	p.rmu.Lock()
	defer p.rmu.Unlock()
	if len(p.negCache) >= negCacheMax {
		for k, t := range p.negCache {
			if now.Sub(t) >= p.negTTL() {
				delete(p.negCache, k)
			}
		}
		for len(p.negCache) >= negCacheMax {
			var oldestK string
			var oldestT time.Time
			for k, t := range p.negCache {
				if oldestK == "" || t.Before(oldestT) {
					oldestK, oldestT = k, t
				}
			}
			delete(p.negCache, oldestK)
			p.stats.negCacheEvicted.Add(1)
		}
	}
	p.negCache[key] = now
}
