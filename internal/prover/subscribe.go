package prover

import (
	"context"
	"time"

	"repro/internal/core"
)

// InvalidationSource is a certificate directory's invalidation stream
// (certdir.Client implements it). FollowInvalidations follows the
// stream until ctx ends, retrying failed polls; hold bounds how long
// the directory may hold one poll open (zero or less means the
// directory's cap). It passes apply the body hashes of certificates
// the directory stopped serving before their expiry — retracted by
// their publisher or voided by a CRL — and reset, which reports that
// the stream could not be served continuously (the follower lagged
// past the directory's retained tail, or the directory restarted), in
// which case the subscriber cannot know what it missed and must
// invalidate coarsely.
type InvalidationSource interface {
	FollowInvalidations(ctx context.Context, hold time.Duration, apply func(hashes [][]byte, reset bool))
}

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

// SubscribeWait starts draining src's invalidation events: every hash
// the directory reports is passed through Invalidate, dropping the
// cached edges that rest on the revoked certificate and the cache's
// verdicts for them. Without it, a prover serves proofs built from
// fetched certificates until they expire, long after the directory
// stopped vouching for them. hold bounds each long poll; zero means
// the directory's cap, and is what daemons pass.
//
// cache is the verified-proof cache to evict from; it must not be nil.
// On a stream reset the subscription cannot know which certificates it
// missed, so it bumps the cache epoch — the coarse-but-sound fallback —
// and continues from the new cursor.
func (p *Prover) SubscribeWait(src InvalidationSource, cache *core.ProofCache, hold time.Duration) *Subscription {
	ctx, stop := context.WithCancel(context.Background())
	s := &Subscription{stop: stop, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		src.FollowInvalidations(ctx, hold, func(hashes [][]byte, reset bool) {
			if ctx.Err() != nil {
				return // stopped: the answer raced the cancel
			}
			if reset {
				// The gap is unknowable: flush every cached verdict.
				// Edges for certificates revoked inside the gap stay in
				// the graph until they expire or a later event names
				// them, but no VERDICT survives — verifiers re-check
				// revocation on the next presentation, so soundness
				// never rested on this stream to begin with; only
				// freshness does.
				cache.BumpEpoch()
				p.stats.eventResets.Add(1)
			}
			p.Invalidate(hashes, cache)
		})
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
