package prover

import (
	"context"
	"time"

	"repro/internal/core"
)

// InvalidationSource is a certificate directory's invalidation event
// stream (certdir.Client implements it): a long-poll cursor protocol
// that yields the body hashes of certificates the directory stopped
// serving before their expiry — retracted by their publisher or
// voided by a CRL. after is the last cursor consumed (0 on first
// call); wait bounds how long the source may hold the poll open, and
// ctx ends it early; reset reports that the stream could not be served
// continuously (the subscriber lagged past the source's retained tail,
// or the directory restarted), in which case the subscriber cannot
// know what it missed and must invalidate coarsely.
type InvalidationSource interface {
	Events(ctx context.Context, after uint64, wait time.Duration) (hashes [][]byte, next uint64, reset bool, err error)
}

// Subscription tunables.
const (
	// DefaultEventWait is the long-poll duration per Events call;
	// directories cap waits server-side (certdir caps at 30s), so
	// staying under that keeps every poll productive.
	DefaultEventWait = 25 * time.Second
	// eventRetryBackoff is the pause after a failed poll; an
	// unreachable directory costs one goroutine a retry loop, nothing
	// more — proving never blocks on the subscription.
	eventRetryBackoff = time.Second
)

// Subscription is a running drain of one directory's invalidation
// stream into this prover. Stop halts it; the subscription also stops
// by itself only when Stop is called (an unreachable source is
// retried forever — the directory coming back is exactly the moment
// the prover most needs to hear what changed).
type Subscription struct {
	stop context.CancelFunc
	done chan struct{}
}

// Done is closed when the drain goroutine has fully exited; callers
// that need the goroutine gone (not just told to stop) wait on it.
func (s *Subscription) Done() <-chan struct{} { return s.done }

// Subscribe starts draining src's invalidation events: every hash the
// directory reports is passed through Invalidate, dropping the cached
// edges that rest on the revoked certificate and the cache's verdicts
// for them. This closes the last revocation window of the ROADMAP —
// without it, a prover serves proofs built from fetched certificates
// until they expire, long after the directory stopped vouching for
// them.
//
// cache is the verified-proof cache to evict from (nil means the
// process-wide shared cache; pass one explicitly only in harnesses
// that isolate caches). On a stream reset the subscription cannot
// know which certificates it missed, so it bumps the cache epoch —
// the coarse-but-sound fallback — and continues from the new cursor.
func (p *Prover) Subscribe(src InvalidationSource, cache *core.ProofCache) *Subscription {
	return p.SubscribeWait(src, cache, DefaultEventWait)
}

// SubscribeWait is Subscribe with an explicit long-poll duration per
// Events call; tests use short waits.
func (p *Prover) SubscribeWait(src InvalidationSource, cache *core.ProofCache, wait time.Duration) *Subscription {
	if cache == nil {
		cache = core.SharedProofCache()
	}
	ctx, stop := context.WithCancel(context.Background())
	s := &Subscription{stop: stop, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		var cursor uint64
		for ctx.Err() == nil {
			hashes, next, reset, err := src.Events(ctx, cursor, wait)
			if ctx.Err() != nil {
				return
			}
			if err != nil {
				select {
				case <-ctx.Done():
				case <-time.After(eventRetryBackoff):
				}
				continue
			}
			if reset {
				// The gap is unknowable: flush every cached verdict and
				// resume from the stream's current position. Edges for
				// certificates revoked inside the gap stay in the graph
				// until they expire or a later event names them, but no
				// VERDICT survives — verifiers re-check revocation on
				// the next presentation, so soundness never rested on
				// this stream to begin with; only freshness does.
				cache.BumpEpoch()
				p.stats.eventResets.Add(1)
			}
			if len(hashes) > 0 {
				p.Invalidate(hashes, cache)
			}
			cursor = next
		}
	}()
	return s
}

// Stop halts the subscription and returns immediately. It cancels the
// long poll in flight, so the directory stops holding it and the drain
// goroutine exits at once; the goroutine mutates nothing after the
// stop, so callers need not wait — use Done to synchronize when they
// must. Idempotent.
func (s *Subscription) Stop() { s.stop() }

// bodyHashed is the shape of proof leaves that carry a certificate
// body hash — cert.Cert's Hash method — matched structurally so the
// prover need not import the cert package.
type bodyHashed interface{ Hash() []byte }

// leafHashes appends the body hashes of pr's certificate leaves to
// out. addEdge records them once per edge, so Invalidate tests set
// membership instead of re-deriving (for a locally built certificate,
// re-encoding) every leaf on every event.
func leafHashes(pr core.Proof, out [][]byte) [][]byte {
	if bh, ok := pr.(bodyHashed); ok {
		out = append(out, bh.Hash())
	}
	for _, c := range pr.Children() {
		out = leafHashes(c, out)
	}
	return out
}

// Invalidate drops every cached edge whose proof rests on any of the
// given certificate body hashes — the certificate itself and every
// composed shortcut containing it — and evicts those proofs' verdicts
// from the cache (targeted: only the dead chains re-verify, the rest
// of the cache stays warm). It returns the number of edges dropped.
// Directory subscriptions call it; it is also safe to call directly
// when a revocation is learned out of band.
func (p *Prover) Invalidate(bodyHashes [][]byte, cache *core.ProofCache) int {
	if len(bodyHashes) == 0 {
		return 0
	}
	revoked := make(map[string]bool, len(bodyHashes))
	for _, h := range bodyHashes {
		revoked[string(h)] = true
	}
	live := func(e *edge) bool {
		for _, h := range e.leaves {
			if revoked[string(h)] {
				return false
			}
		}
		return true
	}
	dropped := 0
	for _, sh := range p.shards {
		sh.mu.Lock()
		for ik, es := range sh.edges {
			for _, e := range es.filter(live) {
				delete(sh.seen, e.hash)
				if cache != nil {
					cache.Evict(e.hash)
				}
				dropped++
			}
			if len(es.all) == 0 {
				delete(sh.edges, ik)
			}
		}
		sh.mu.Unlock()
	}
	p.stats.invalidated.Add(int64(dropped))
	return dropped
}
