package core

import (
	"sync"
	"sync/atomic"
	"time"
)

// ProofCache is a shared, digest-keyed cache of verified-proof
// verdicts: proof hash -> (verified, validity window, revocation
// epoch). It makes the warm authorization path cheap — a proof
// presented twice costs one map lookup instead of a chain of
// signature verifications — while staying sound:
//
//   - Only positive verdicts are cached. A negative verdict can be
//     context-local (a missing assumption, a revalidator outage) and
//     must not condemn the proof for other verifiers.
//   - Only portable proofs are cached (see Portable): subtrees whose
//     verdict depends on verifier-local state — assumption leaves,
//     certificates demanding one-time revalidation — never enter the
//     shared cache.
//   - Every entry records the revocation epoch at verification time.
//     cert.RevocationStore bumps the cache epoch whenever a CRL is
//     installed, so cached verdicts die with their certificates; the
//     next presentation re-verifies against the new revocation state.
//   - Every entry carries the proof conclusion's validity window and
//     is ignored (and lazily evicted) outside it.
//
// The zero value is not usable; construct with NewProofCache. All
// methods are safe for concurrent use.
type ProofCache struct {
	mu      sync.RWMutex
	entries map[[32]byte]proofCacheEntry
	max     int
	clock   func() time.Time // nil means time.Now; see SetClock

	epoch  atomic.Uint64
	hits   atomic.Int64
	misses atomic.Int64
}

type proofCacheEntry struct {
	validity Validity
	epoch    uint64
	view     uint64 // revocation view the verdict was checked under
}

// ViewAny, passed to Lookup, matches entries recorded under any
// revocation view. Only verifiers that enforce no revocation state
// may use it: a verdict checked under some store's CRLs is at least
// as strict as a bare signature check, never less.
const ViewAny = ^uint64(0)

// DefaultProofCacheSize bounds the process-wide shared cache. A cache
// entry is a 32-byte key plus a few words (~100 bytes with map
// overhead), so the default costs a few megabytes. It is sized for the
// bulk paths, not just request traffic: a WAL replay or gossip
// catch-up re-verifies an entire directory's working set, and a cache
// smaller than that set thrashes — the 10k-certificate replay
// benchmark went signature-bound (every lookup a miss) under the old
// 8192-entry bound.
const DefaultProofCacheSize = 32768

// NewProofCache returns an empty cache holding at most max entries
// (DefaultProofCacheSize when max <= 0).
func NewProofCache(max int) *ProofCache {
	if max <= 0 {
		max = DefaultProofCacheSize
	}
	return &ProofCache{entries: make(map[[32]byte]proofCacheEntry), max: max}
}

// SetClock injects the cache's notion of now (nil restores time.Now).
// The rest of verification threads now explicitly through contexts and
// Lookup; the clock only feeds eviction's validity test, so tests can
// park entries on either side of a window instead of sleeping across
// it. Set before the cache takes traffic.
func (c *ProofCache) SetClock(clock func() time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.clock = clock
}

// now reads the injected clock; callers hold at least a read lock.
func (c *ProofCache) now() time.Time {
	if c.clock != nil {
		return c.clock()
	}
	//sfvet:ignore clockcheck this nil-clock fallback is the SetClock injection seam itself
	return time.Now()
}

var sharedProofCache = NewProofCache(0)

// SharedProofCache returns the process-wide verified-proof cache: the
// default for an admission pipeline, prover, or certificate directory
// that is given no cache of its own. Revocation stores bump its epoch
// automatically.
func SharedProofCache() *ProofCache { return sharedProofCache }

// Lookup reports whether the proof with the given hash has a cached
// positive verdict usable at time now under the current epoch and
// the given revocation view (ViewAny for verifiers enforcing no
// revocation state). Stale, expired, or wrong-view entries are
// misses (stale and expired ones are dropped).
func (c *ProofCache) Lookup(h [32]byte, now time.Time, view uint64) bool {
	c.mu.RLock()
	e, ok := c.entries[h]
	c.mu.RUnlock()
	if ok && e.epoch == c.epoch.Load() && e.validity.Contains(now) {
		if view == ViewAny || e.view == view {
			c.hits.Add(1)
			return true
		}
		c.misses.Add(1)
		return false
	}
	if ok {
		c.mu.Lock()
		// Re-check under the write lock; a concurrent Store after a
		// bump may have refreshed the entry.
		if e2, still := c.entries[h]; still && (e2.epoch != c.epoch.Load() || !e2.validity.Contains(now)) {
			delete(c.entries, h)
		}
		c.mu.Unlock()
	}
	c.misses.Add(1)
	return false
}

// peek is Lookup without side effects: no hit/miss counting, no lazy
// eviction. VerifyContext.PeekVerified uses it so batch planning does
// not distort the cache statistics the benchmarks read.
func (c *ProofCache) peek(h [32]byte, now time.Time, view uint64) bool {
	c.mu.RLock()
	e, ok := c.entries[h]
	c.mu.RUnlock()
	return ok && e.epoch == c.epoch.Load() && e.validity.Contains(now) &&
		(view == ViewAny || e.view == view)
}

// Store records a positive verdict for the proof hash, valid within v
// as checked under revocation view (0 for none) at the given epoch.
// Callers must capture the epoch BEFORE running the verification the
// verdict summarizes: if a CRL lands mid-verification, the bump makes
// the passed epoch stale and the verdict is discarded rather than
// cached against the new revocation state. When the cache is full it
// evicts stale entries first, then arbitrary ones: the cache is a
// performance device, and dropping an entry only costs a
// re-verification.
func (c *ProofCache) Store(h [32]byte, v Validity, epoch, view uint64) {
	if epoch != c.epoch.Load() {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.entries[h]; ok {
		// A hash holds one entry. An entry vouched for by an enforcing
		// view is never displaced by a different view: view-0 readers
		// can use it anyway (ViewAny), and two enforcing verifiers
		// with different stores would otherwise ping-pong-evict each
		// other's verdicts (the later one stays on its cold path
		// instead). A view-0 entry, by contrast, is upgraded in place
		// by any enforcing verdict — strictly stronger. Expired
		// entries are replaced by the lazy eviction in Lookup.
		if old.epoch == epoch && old.view != 0 && old.view != view {
			return
		}
	} else if len(c.entries) >= c.max {
		c.evictLocked()
	}
	c.entries[h] = proofCacheEntry{validity: v, epoch: epoch, view: view}
}

// evictLocked frees room for one insertion: stale-epoch and
// validity-expired entries go first (per-request proof verdicts are
// never looked up again and would otherwise crowd out the hot
// delegation verdicts), then an arbitrary quarter of the map.
func (c *ProofCache) evictLocked() {
	epoch := c.epoch.Load()
	now := c.now()
	for h, e := range c.entries {
		if e.epoch != epoch || !e.validity.Contains(now) {
			delete(c.entries, h)
		}
	}
	if len(c.entries) < c.max {
		return
	}
	drop := c.max / 4
	if drop < 1 {
		drop = 1
	}
	for h := range c.entries {
		delete(c.entries, h)
		if drop--; drop <= 0 {
			break
		}
	}
}

// Evict drops the single cached verdict for the given proof hash,
// reporting whether one was present. This is the targeted complement
// to BumpEpoch: a directory invalidation event names the certificates
// it voids, so a prover following the stream (prover.SubscribeWait)
// can kill exactly the verdicts resting on them without flushing the
// whole cache.
func (c *ProofCache) Evict(h [32]byte) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[h]; !ok {
		return false
	}
	delete(c.entries, h)
	return true
}

// BumpEpoch advances the revocation epoch, invalidating every cached
// verdict at once. Revocation is rare and correctness-critical;
// re-verifying the hot set after a CRL costs milliseconds, while a
// finer-grained invalidation (per-cert dependency tracking) would tax
// every insertion on the hot path.
func (c *ProofCache) BumpEpoch() { c.epoch.Add(1) }

// Epoch returns the current revocation epoch.
func (c *ProofCache) Epoch() uint64 { return c.epoch.Load() }

// Len returns the number of cached verdicts (including any not yet
// lazily evicted).
func (c *ProofCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}

// Hits and Misses report lookup counters; the benchmarks read them.
func (c *ProofCache) Hits() int64   { return c.hits.Load() }
func (c *ProofCache) Misses() int64 { return c.misses.Load() }

// Reset drops every entry and counter but keeps the epoch;
// measurement harnesses use it to isolate cold paths.
func (c *ProofCache) Reset() {
	c.mu.Lock()
	c.entries = make(map[[32]byte]proofCacheEntry)
	c.mu.Unlock()
	c.hits.Store(0)
	c.misses.Store(0)
}

// EpochContext holds a long-lived VerifyContext for servers that
// memoize verification across requests: the context's local memo is
// the warm path, and it is discarded whenever the proof cache's
// revocation epoch advances so no stale verdict survives a CRL. Not
// safe for concurrent use; callers guard it with their own lock.
type EpochContext struct {
	ctx   *VerifyContext
	epoch uint64
}

// Refresh returns the held context, rebuilt if the cache's epoch has
// advanced (or on first use), with the cache installed. The caller
// stamps Now/Revoked/Revalidate/RevocationView afterwards.
func (e *EpochContext) Refresh(cache *ProofCache) *VerifyContext {
	if epoch := cache.Epoch(); e.ctx == nil || epoch != e.epoch {
		e.ctx = NewVerifyContext()
		e.epoch = epoch
	}
	e.ctx.Cache = cache
	return e.ctx
}

// Reset drops the held context; the next Refresh starts fresh.
func (e *EpochContext) Reset() { e.ctx = nil }

// ContextDependent is implemented by proof nodes whose verdict
// depends on verifier-local state beyond what the revocation epoch
// tracks: assumption leaves (held by one verifier only) and
// certificates demanding one-time revalidation (the revalidator may
// change its mind without a CRL). Such nodes keep their whole subtree
// out of the shared cache.
type ContextDependent interface {
	ContextDependent() bool
}

// Portable reports whether a proof's verdict is independent of any
// particular verifier: no node is context-dependent. Only portable
// proofs may enter a shared ProofCache.
func Portable(p Proof) bool {
	if cd, ok := p.(ContextDependent); ok && cd.ContextDependent() {
		return false
	}
	for _, c := range p.Children() {
		if !Portable(c) {
			return false
		}
	}
	return true
}
