// Package certdir implements a distributed certificate directory: a
// networked store where principals publish signed delegation
// certificates and provers query by issuer or subject to assemble
// speaks-for chains they do not hold locally.
//
// The paper's Prover (section 4.4) searches a local delegation graph;
// end-to-end authorization across administrative domains additionally
// needs a discovery path, the role SDSI/SPKI assign to certificate
// directories and Vanadium assigns to blessing discovery. A directory
// is pure mechanism: it stores verifiable facts, and knowledge of a
// certificate bestows no authority (core's proofs are not bearer
// capabilities), so the directory itself need not be trusted for
// integrity — only for availability.
//
// # Store
//
// The Store is sharded by issuer principal so heavy publish/query
// traffic spreads across independent locks, with a secondary
// subject-side index for reverse discovery, expiry sweeping, and
// revocation-aware eviction driven by cert.RevocationStore. Every
// certificate is signature-verified before it is indexed; a directory
// fed hostile publishes can at worst refuse service, never grant
// authority.
//
// # Durability
//
// A Store opened with OpenDurable is backed by a write-ahead log
// (WAL): every accepted publish, removal and newly installed CRL is
// journaled — under a configurable fsync policy — before it is
// acknowledged, and a restart replays the log, so the delegation graph
// and its revocations survive process lifetimes. The store does not
// track where a record lives in the log: once sweeps and revocation
// evictions leave the log holding more than twice the live records,
// CompactWAL rewrites it as one base segment of exactly those records. See wal.go for the record format,
// the layout and crash semantics.
//
// # Replication
//
// A Replicator connects a Store to peer directories in other
// administrative domains and keeps them converged: it follows each
// peer's record stream (events.go) and applies every publish, removal
// and CRL as it arrives, and a periodic anti-entropy round descends a
// Merkle tree of content-hash summaries to repair anything the stream
// shed. Removed certificates leave tombstones so gossip cannot
// resurrect a retracted delegation. Everything taken from a peer is
// re-verified before it is indexed: replication, like publish, extends
// availability without extending trust.
package certdir

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/principal"
	"repro/internal/sexp"
	"repro/internal/sfkey"
	"repro/internal/shard"
	"repro/internal/tag"
)

// DefaultShards is the shard count used when NewStore is given n <= 0.
// 32 keeps per-shard contention negligible at ~100k certs while the
// per-shard fixed cost stays trivial.
const DefaultShards = 32

// entry is one stored certificate with its precomputed index keys.
type entry struct {
	cert     *cert.Cert
	hashKey  string // string(cert.Hash()), the identity for dedup/removal
	issuerK  string
	subjectK string
	expiry   time.Time // zero when unbounded
}

// dirShard is an independently locked slice of the directory. A
// certificate lives in exactly one shard, chosen by its issuer, and
// appears in all of that shard's indexes.
type dirShard struct {
	mu        sync.RWMutex
	byIssuer  map[string]*issuerEntries
	bySubject map[string][]*entry
	byHash    map[string]*entry
}

// issuerEntries holds one issuer's certificates twice over: in
// insertion order, and by delegation tag path (tag.Index), so a
// tag-filtered query visits only the certificates whose tag can cover
// the query's, in the same order a scan would meet them.
type issuerEntries struct {
	all  []*entry
	tags tag.Index[*entry]
}

// Stats counts directory traffic; the service exposes them and the
// benchmarks read them.
type Stats struct {
	Published  int64 // accepted publishes (new certificates)
	Duplicates int64 // publishes deduplicated by hash
	Rejected   int64 // publishes refused (bad signature, expired)
	Queries    int64 // issuer + subject lookups
	Removed    int64 // explicit removals
	Swept      int64 // entries dropped by expiry sweeps
	Evicted    int64 // entries dropped as revoked
	WALErrors  int64 // mutations refused because the WAL could not append
	Tombstones int64 // live removal tombstones held back from gossip
}

// Store is the sharded, concurrency-safe certificate directory.
type Store struct {
	shards []*dirShard

	// wal, when non-nil, journals every accepted mutation before it is
	// acknowledged. Attached by OpenDurable; nil for memory-only use.
	wal *WAL

	// tombstones remembers removed (or revocation-evicted) certificate
	// hashes (see tombstone), so anti-entropy pulls do not resurrect
	// them. Cleared by an explicit re-publish, expired by Sweep. crls holds the revocation lists
	// installed here (InstallCRLs), by content hash, until Sweep finds
	// them lapsed. Both are journaled under tmu, so a compaction's cut
	// copies them at one instant.
	tmu        sync.Mutex
	tombstones map[string]tombstone
	crls       map[[32]byte]*cert.RevocationList

	// events is the stream served to followers: one event per newly
	// indexed certificate, removal, revocation eviction or newly kept
	// CRL, so peers, caches and verifiers beyond the directory's reach
	// learn what it now vouches for and what it no longer does.
	events *EventLog

	// id names this store to the peers that follow it: every answer of
	// the stream carries it, and a peer that has seen it asks with it
	// (from) so as not to be answered with the records this store
	// applied from that peer (Event.from). Random, made once per
	// process: it is a hint that saves bytes, never a credential.
	id string

	// merkle is the incrementally maintained leaf-summary array behind
	// the Merkle anti-entropy endpoints (see merkle.go).
	merkle merkleState

	// compactMu serialises WAL compactions (CompactWAL).
	compactMu sync.Mutex

	published  atomic.Int64
	duplicates atomic.Int64
	rejected   atomic.Int64
	queries    atomic.Int64
	removed    atomic.Int64
	swept      atomic.Int64
	evicted    atomic.Int64
	walErrors  atomic.Int64
}

// NewStore returns an empty memory-only directory with n shards
// (DefaultShards when n <= 0). Use OpenDurable for a WAL-backed one.
func NewStore(n int) *Store {
	if n <= 0 {
		n = DefaultShards
	}
	s := &Store{
		shards:     make([]*dirShard, n),
		tombstones: make(map[string]tombstone),
		crls:       make(map[[32]byte]*cert.RevocationList),
		events:     newEventLog(0),
		id:         newStoreID(),
	}
	for i := range s.shards {
		s.shards[i] = &dirShard{
			byIssuer:  make(map[string]*issuerEntries),
			bySubject: make(map[string][]*entry),
			byHash:    make(map[string]*entry),
		}
	}
	return s
}

// shardFor picks the shard for an issuer key.
func (s *Store) shardFor(issuerKey string) *dirShard {
	return s.shards[shard.Index(issuerKey, len(s.shards))]
}

// attachWAL makes subsequent mutations journal to w. Call before the
// store takes traffic; OpenDurable does.
func (s *Store) attachWAL(w *WAL) { s.wal = w }

// WALStats returns the attached log's counters, or (zero, false) for a
// memory-only store.
func (s *Store) WALStats() (WALStats, bool) {
	if s.wal == nil {
		return WALStats{}, false
	}
	return s.wal.Stats(), true
}

// publishCtx verifies certificates on the way in. The directory
// confirms anything demanding revalidation: revalidation is the
// verifier's duty at use time, not the directory's at publish time.
// Publish-time verification shares the process-wide proof cache, so
// re-publishes and certificates already screened by another layer
// cost a lookup instead of a signature check.
func publishCtx(now time.Time) *core.VerifyContext {
	ctx := core.NewVerifyContext()
	ctx.Now = now
	ctx.Revalidate = func([]byte, string) error { return nil }
	ctx.Cache = core.SharedProofCache()
	return ctx
}

// Publish verifies and stores a certificate, reporting whether it was
// newly stored. Certificates with bad signatures or already-expired
// validity are refused; duplicates (same signed body and signature)
// are accepted idempotently with added == false. On a durable store
// the publish is journaled before it is acknowledged, so added == true
// implies the certificate survives a restart (under the WAL's fsync
// policy). A successful publish clears any removal tombstone for the
// same certificate: an explicit re-publish outranks a past retraction.
// Anti-entropy pulls go through indexVerified with pulled set instead,
// which yields to tombstones rather than clearing them.
func (s *Store) Publish(c *cert.Cert, now time.Time) (added bool, err error) {
	return s.publish(c, now, false, false, "")
}

// verifyBatch is how many certificates a streaming loader (WAL replay,
// snapshot bootstrap) gathers before handing them to indexVerified,
// and the most one answer of the record stream carries. Big enough to
// amortize the batch machinery, small enough that the decoded
// certificates pending a flush stay a bounded memory cost.
const verifyBatch = 256

// indexVerified is the one way certificates enter the store from
// outside — the publish endpoint, a peer's record stream, WAL replay,
// snapshot bootstrap, and anti-entropy pulls all end here.
// The batch is signature-checked as one unit first (cert.VerifyBatch
// seeds the shared proof cache), so each publish's own
// verify-before-index is a cache lookup; publish still re-verifies, so
// neither a hostile peer nor a log tampered with at rest can plant
// authority. It reports how many certificates were newly indexed, how
// many were refused (bad signature, not valid at now, WAL failure) and
// why the first of those was; the rest were duplicates or yielded to a
// tombstone. A refusal does not stop the certificates after it.
//
// pulled marks certificates arriving via anti-entropy gossip: a live
// removal tombstone wins, and the certificate is skipped (neither added
// nor rejected) instead of resurrecting a delegation retracted here.
// The tombstone check happens under the same shard lock Remove adds
// tombstones under, so a pull racing a removal converges to removed in
// either interleaving. replay marks WAL replay: the record is already
// in the log, so nothing is journaled and no event is appended (the
// record's own token restores it). from tags the publish events with
// the id of the peer the certificates came from (Event.from), "" for
// certificates that did not come from a peer.
func (s *Store) indexVerified(certs []*cert.Cert, now time.Time, pulled, replay bool, from string) (added, rejected int, refused error) {
	if len(certs) == 0 {
		return 0, 0, nil
	}
	cert.VerifyBatch(publishCtx(now), certs)
	for _, c := range certs {
		ok, err := s.publish(c, now, pulled, replay, from)
		switch {
		case err != nil:
			rejected++
			if refused == nil {
				refused = err
			}
		case ok:
			added++
		}
	}
	return added, rejected, refused
}

func (s *Store) publish(c *cert.Cert, now time.Time, yieldToTombstone, replay bool, from string) (added bool, err error) {
	if c == nil {
		s.rejected.Add(1)
		return false, fmt.Errorf("certdir: nil certificate")
	}
	if !c.Body.Validity.Contains(now) {
		s.rejected.Add(1)
		return false, fmt.Errorf("certdir: certificate not valid at %s", now.UTC().Format(time.RFC3339))
	}
	if err := c.Verify(publishCtx(now)); err != nil {
		s.rejected.Add(1)
		return false, fmt.Errorf("certdir: refusing certificate: %w", err)
	}
	e := &entry{
		cert:     c,
		hashKey:  string(c.Hash()),
		issuerK:  c.Body.Issuer.Key(),
		subjectK: c.Body.Subject.Key(),
		expiry:   c.Body.Validity.NotAfter,
	}
	sh := s.shardFor(e.issuerK)
	sh.mu.Lock()
	if _, dup := sh.byHash[e.hashKey]; dup {
		sh.mu.Unlock()
		s.duplicates.Add(1)
		return false, nil
	}
	if yieldToTombstone && s.Tombstoned([]byte(e.hashKey)) {
		sh.mu.Unlock()
		return false, nil
	}
	if !replay {
		// The publish event, journaled before indexing: an acknowledged
		// publish must be on disk. Its token rides in the publish's own
		// record, so a publish costs one record (and, under SyncAlways,
		// one fsync). The shard stays locked so the log's record order
		// cannot contradict the index for this certificate, and a
		// follower woken by the event waits on this shard until the
		// certificate it names is indexed.
		var journal func(uint64) error
		if s.wal != nil {
			journal = func(token uint64) error { return s.wal.appendRecord(publishRecord(c, token)) }
		}
		if err := s.events.append(EventPublish, []byte(e.hashKey), from, journal); err != nil {
			sh.mu.Unlock()
			s.walErrors.Add(1)
			return false, err
		}
	}
	sh.addLocked(e)
	// The tombstone clear happens under the shard lock, like Remove's
	// tombstone add, so index and tombstone state cannot disagree for
	// a concurrent observer holding the same shard.
	s.tmu.Lock()
	delete(s.tombstones, e.hashKey)
	s.tmu.Unlock()
	s.merkleAdd(e.hashKey)
	sh.mu.Unlock()
	s.published.Add(1)
	return true, nil
}

// QueryFilter narrows and bounds a directory answer. The zero value
// means "everything, unbounded" — the pre-filter wire behavior.
type QueryFilter struct {
	// Limit caps the number of certificates returned; 0 means
	// unbounded. Truncation keeps index (insertion) order, so repeated
	// queries see a stable prefix.
	Limit int
	// Tag, when valid (tag.Tag.Valid), keeps only certificates whose
	// delegation tag covers it — exactly the edge-usability test the
	// prover applies (tag.Covers(certTag, want)), so a filtered answer
	// omits nothing a proof search for that tag could use.
	Tag tag.Tag
}

// ByIssuer returns every stored certificate whose issuer is p and
// whose validity contains now. Only one shard is consulted. Unbounded;
// use ByIssuerFiltered to cap or tag-filter the answer.
func (s *Store) ByIssuer(p principal.Principal, now time.Time) []*cert.Cert {
	return s.ByIssuerFiltered(p, now, QueryFilter{})
}

// ByIssuerFiltered is ByIssuer narrowed by f. A tag filter reads the
// issuer's tag-path index instead of scanning every certificate; the
// answer is identical to a scan's, order and truncation included,
// because the index yields a superset of the covering certificates in
// insertion order and the same filter then runs over it.
func (s *Store) ByIssuerFiltered(p principal.Principal, now time.Time, f QueryFilter) []*cert.Cert {
	s.queries.Add(1)
	k := p.Key()
	sh := s.shardFor(k)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	ie := sh.byIssuer[k]
	if ie == nil {
		return nil
	}
	es := ie.all
	if f.Tag.Valid() {
		if cands, ok := ie.tags.Candidates(f.Tag); ok {
			es = cands
		}
	}
	return appendLive(nil, es, now, f)
}

// BySubject returns every stored certificate whose subject is p and
// whose validity contains now. Sharding is issuer-keyed, so the
// subject index fans across all shards.
func (s *Store) BySubject(p principal.Principal, now time.Time) []*cert.Cert {
	return s.BySubjectFiltered(p, now, QueryFilter{})
}

// BySubjectFiltered is BySubject narrowed by f.
func (s *Store) BySubjectFiltered(p principal.Principal, now time.Time, f QueryFilter) []*cert.Cert {
	s.queries.Add(1)
	k := p.Key()
	var out []*cert.Cert
	for _, sh := range s.shards {
		sh.mu.RLock()
		out = appendLive(out, sh.bySubject[k], now, f)
		sh.mu.RUnlock()
		if f.Limit > 0 && len(out) >= f.Limit {
			break
		}
	}
	return out
}

// appendLive appends the entries passing validity-at-now and the
// filter onto dst, honoring the filter's limit across calls.
func appendLive(dst []*cert.Cert, es []*entry, now time.Time, f QueryFilter) []*cert.Cert {
	for _, e := range es {
		if f.Limit > 0 && len(dst) >= f.Limit {
			return dst
		}
		if !e.cert.Body.Validity.Contains(now) {
			continue
		}
		if f.Tag.Valid() && !tag.Covers(e.cert.Body.Tag, f.Tag) {
			continue
		}
		dst = append(dst, e.cert)
	}
	return dst
}

// Remove deletes the certificate with the given body hash (cert.Hash)
// and reports whether it was present. Publishers use it to retract a
// delegation before its expiry. An acknowledged removal is durable (on
// a WAL-backed store) and leaves a tombstone that keeps anti-entropy
// gossip from pulling the certificate back from a lagging peer; if the
// WAL cannot journal the removal, the certificate is kept and Remove
// reports false rather than acknowledging a retraction that would
// silently reappear after a restart.
func (s *Store) Remove(hash []byte) bool { return s.remove(hash, false, "") }

// remove is Remove; heard marks a removal this directory applies from
// a peer's stream rather than one made here (see tombstone), and from
// tags its event with that peer's id when the peer named one
// (Event.from).
func (s *Store) remove(hash []byte, heard bool, from string) bool {
	key := string(hash)
	for _, sh := range s.shards {
		sh.mu.Lock()
		e, ok := sh.byHash[key]
		if !ok {
			sh.mu.Unlock()
			continue
		}
		if s.wal != nil {
			if err := s.wal.appendRecord(removeRecord(hash, tombstone{e.expiry, heard})); err != nil {
				sh.mu.Unlock()
				s.walErrors.Add(1)
				return false
			}
		}
		sh.dropLocked(e)
		s.merkleDrop(e.hashKey)
		// Tombstone before releasing the shard lock: a concurrent
		// anti-entropy pull of this certificate serializes on the same
		// shard and must find either the entry or the tombstone, never
		// neither (which would let it resurrect the removal).
		s.addTombstone(key, tombstone{e.expiry, heard})
		sh.mu.Unlock()
		s.removed.Add(1)
		s.emitEvent(EventRemove, hash, from)
		return true
	}
	return false
}

// replayRemove re-applies a WAL removal record: drop the certificate
// if a preceding replayed publish indexed it, and restore the
// tombstone unless the certificate has expired anyway. No journaling,
// no events — replay reconstructs state, it does not create history.
func (s *Store) replayRemove(hash []byte, t tombstone, now time.Time) {
	key := string(hash)
	for _, sh := range s.shards {
		sh.mu.Lock()
		if e, ok := sh.byHash[key]; ok {
			sh.dropLocked(e)
			s.merkleDrop(e.hashKey)
			if t.expiry.IsZero() {
				t.expiry = e.expiry
			}
			sh.mu.Unlock()
			break
		}
		sh.mu.Unlock()
	}
	if t.expiry.IsZero() || now.Before(t.expiry) {
		s.addTombstone(key, t)
	}
}

// emitEvent appends one event, journaling it (under the event lock,
// so ring order and log order agree) when a WAL is attached. A journal failure degrades durability — the event still
// reaches live subscribers, but a restart resets their cursors — and
// is counted, not escalated: event delivery must not be held hostage
// by a full disk. from tags the event (Event.from).
func (s *Store) emitEvent(kind string, hash []byte, from string) {
	var journal func(uint64) error
	if s.wal != nil {
		journal = func(token uint64) error {
			if err := s.wal.appendRecord(eventRecord(token, kind, hash)); err != nil {
				s.walErrors.Add(1)
			}
			return nil
		}
	}
	s.events.append(kind, hash, from, journal)
}

// tombstone is one retraction: the expiry of the certificate it
// retracts, and whether this directory only heard of it from a peer —
// a removal on a followed stream, or one a bootstrap snapshot carried —
// rather than made it. Anti-entropy repairs a peer that still serves a
// retracted certificate only for retractions made here: a peer's
// removal is not relayed under this directory's control-plane
// credential (Replicator.pullHashes).
type tombstone struct {
	expiry time.Time
	heard  bool
}

// addTombstone records a retraction until the certificate's expiry
// (forever for unbounded certificates).
func (s *Store) addTombstone(key string, t tombstone) {
	s.tmu.Lock()
	s.tombstones[key] = t
	s.tmu.Unlock()
}

// Tombstoned reports whether the certificate hash was removed here and
// its retraction is still live. The Replicator consults it before
// pulling: a lagging peer must not resurrect a local removal. An
// explicit Publish of the same certificate clears the tombstone.
func (s *Store) Tombstoned(hash []byte) bool {
	_, ok := s.tombstone(hash)
	return ok
}

// tombstone returns the live retraction of the certificate hash.
func (s *Store) tombstone(hash []byte) (t tombstone, ok bool) {
	s.tmu.Lock()
	defer s.tmu.Unlock()
	t, ok = s.tombstones[string(hash)]
	return t, ok
}

// keepCRL makes a verified revocation list directory state, reporting
// whether it was new: journaled and kept, so it outlives a restart
// (OpenDurable replays it; the daemon re-installs Store.CRLs) and rides
// the next snapshot, and announced as a crl event to the stream's
// followers. A list already held is neither journaled nor announced
// again. InstallCRLs calls it for each list cert.RevocationStore.Add
// installed; replay calls it with replay set for each wal-crl record
// that verifies, and the event comes back from its own record. from
// tags the event with the id of the peer the list came from
// (Event.from). A journal failure is counted, not escalated: the list
// is in force in this process already, and only its survival of a
// restart is lost.
func (s *Store) keepCRL(rl *cert.RevocationList, replay bool, from string) bool {
	h := rl.Hash()
	s.tmu.Lock()
	defer s.tmu.Unlock()
	if s.crls[h] != nil {
		return false
	}
	// The event is journaled before the list: a torn tail then loses
	// the list with or without its event, but never keeps a list whose
	// event a follower's cursor would need.
	if !replay {
		s.emitEvent(EventCRL, h[:], from)
	}
	if s.wal != nil {
		if err := s.wal.appendRecord(crlRecord(rl)); err != nil {
			s.walErrors.Add(1)
		}
	}
	s.crls[h] = rl
	return true
}

// lapsed reports whether a list's validity ended before now, the rule
// cert.RevocationStore.Sweep applies too.
func lapsed(rl *cert.RevocationList, now time.Time) bool {
	na := rl.Validity.NotAfter
	return !na.IsZero() && na.Before(now)
}

// CRLs returns the revocation lists the store holds, in content-hash
// order. A daemon opening a durable directory installs them into its
// cert.RevocationStore before it serves.
func (s *Store) CRLs() []*cert.RevocationList {
	s.tmu.Lock()
	defer s.tmu.Unlock()
	return s.crlsLocked()
}

// crlsLocked sorts by the keys of s.crls, which are the lists' content
// hashes, so no list is encoded again.
func (s *Store) crlsLocked() []*cert.RevocationList {
	keys := make([][32]byte, 0, len(s.crls))
	for h := range s.crls {
		keys = append(keys, h)
	}
	slices.SortFunc(keys, func(a, b [32]byte) int { return bytes.Compare(a[:], b[:]) })
	lists := make([]*cert.RevocationList, len(keys))
	for i, h := range keys {
		lists[i] = s.crls[h]
	}
	return lists
}

// addLocked links an entry into every index. Caller holds the shard
// lock.
func (sh *dirShard) addLocked(e *entry) {
	sh.byHash[e.hashKey] = e
	ie := sh.byIssuer[e.issuerK]
	if ie == nil {
		ie = &issuerEntries{}
		sh.byIssuer[e.issuerK] = ie
	}
	ie.all = append(ie.all, e)
	ie.tags.Add(e.cert.Body.Tag, e)
	sh.bySubject[e.subjectK] = append(sh.bySubject[e.subjectK], e)
}

// dropLocked unlinks an entry from every index. Caller holds the shard
// lock.
func (sh *dirShard) dropLocked(e *entry) {
	delete(sh.byHash, e.hashKey)
	ie := sh.byIssuer[e.issuerK]
	ie.all = dropEntry(ie.all, e)
	ie.tags.Remove(e.cert.Body.Tag, e)
	if len(ie.all) == 0 {
		delete(sh.byIssuer, e.issuerK)
	}
	sh.bySubject[e.subjectK] = dropEntry(sh.bySubject[e.subjectK], e)
	if len(sh.bySubject[e.subjectK]) == 0 {
		delete(sh.bySubject, e.subjectK)
	}
}

func dropEntry(es []*entry, e *entry) []*entry {
	for i, x := range es {
		if x == e {
			return append(es[:i], es[i+1:]...)
		}
	}
	return es
}

// Sweep drops every certificate expired at now (and every tombstone
// whose certificate has expired, and every lapsed CRL), returns the
// count of dropped certificates, and compacts the WAL when anything
// was dropped. Run it periodically (sf-certd does) so the indexes
// don't accumulate dead delegations.
func (s *Store) Sweep(now time.Time) int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		var dead []*entry
		for _, e := range sh.byHash {
			if !e.expiry.IsZero() && now.After(e.expiry) {
				dead = append(dead, e)
			}
		}
		for _, e := range dead {
			sh.dropLocked(e)
			s.merkleDrop(e.hashKey)
		}
		n += len(dead)
		sh.mu.Unlock()
	}
	s.swept.Add(int64(n))
	dropped := 0
	s.tmu.Lock()
	for k, t := range s.tombstones {
		if !t.expiry.IsZero() && now.After(t.expiry) {
			delete(s.tombstones, k)
			dropped++
		}
	}
	for h, rl := range s.crls {
		if lapsed(rl, now) {
			delete(s.crls, h)
			dropped++
		}
	}
	s.tmu.Unlock()
	if n+dropped > 0 {
		s.compactAfterDrop()
	}
	return n
}

// EvictRevoked drops every certificate the predicate reports revoked
// (asked with the certificate's hash and the key that signed it),
// returns the count, and compacts the WAL when anything was dropped.
// Pair it with cert.RevocationStore.RevokedAt, the one revocation rule
// verifiers apply too: a CRL only voids certificates signed by the key
// that signed the CRL, so a validly signed CRL from anyone else evicts
// nothing and the directory keeps serving exactly what verifiers
// still accept.
//
// Each drop is journaled as a removal record and tombstoned (a peer
// that has not seen the CRL must not gossip the certificate back in),
// and emits one revoke event so subscribed provers shed their copies
// too. The journal record is what makes the tombstone survive a
// restart, like any other retraction's. A journal failure does not
// block the eviction — locally refusing to serve a revoked delegation
// outranks tombstone durability.
func (s *Store) EvictRevoked(revoked func(certHash []byte, signer sfkey.PublicKey) bool) int {
	if revoked == nil {
		return 0
	}
	n := 0
	var dropped []*entry
	for _, sh := range s.shards {
		sh.mu.Lock()
		var del []*entry
		for _, e := range sh.byHash {
			if revoked([]byte(e.hashKey), e.cert.Signer) {
				del = append(del, e)
			}
		}
		for _, e := range del {
			if s.wal != nil {
				if err := s.wal.appendRecord(removeRecord([]byte(e.hashKey), tombstone{expiry: e.expiry})); err != nil {
					s.walErrors.Add(1)
				}
			}
			sh.dropLocked(e)
			s.merkleDrop(e.hashKey)
			// Under the shard lock, like Remove: a concurrent pull must
			// see the entry or its tombstone, never neither.
			s.addTombstone(e.hashKey, tombstone{expiry: e.expiry})
		}
		sh.mu.Unlock()
		n += len(del)
		dropped = append(dropped, del...)
	}
	for _, e := range dropped {
		s.emitEvent(EventRevoke, []byte(e.hashKey), "")
	}
	s.evicted.Add(int64(n))
	if n > 0 {
		s.compactAfterDrop()
	}
	return n
}

// compactAfterDrop compacts the WAL after entries were dropped, once
// the log holds more than twice the live records. A compaction then
// never writes more records than it reclaims, so its cost stays
// amortised O(1) per append. Errors are tolerated (the log is merely
// larger than necessary and still replays to the correct state,
// because replay itself drops expired certificates and Publish dedups).
func (s *Store) compactAfterDrop() {
	if s.wal == nil || s.wal.recordCount() <= 2*s.liveRecords() {
		return
	}
	if err := s.CompactWAL(); err != nil {
		s.walErrors.Add(1)
	}
}

// liveRecords counts the records a compacted log holds: indexed
// certificates, live tombstones, held CRLs and the retained events
// other than publishes (a retained publish rides in its certificate's
// record).
func (s *Store) liveRecords() int64 {
	s.tmu.Lock()
	kept := len(s.tombstones) + len(s.crls)
	s.tmu.Unlock()
	s.events.mu.Lock()
	for _, ev := range s.events.ring {
		if ev.Kind != EventPublish {
			kept++
		}
	}
	s.events.mu.Unlock()
	return int64(s.Len() + kept)
}

// CompactWAL rewrites the attached log as one base segment holding
// exactly the live records — indexed certificates, live tombstones,
// held CRLs and retained events — followed by a fresh active segment.
// No-op on a memory-only store. Sweeps and evictions call it once the
// log has grown past twice the live records; recovery calls it so dead
// or torn records do not outlive the boot that detected them.
//
// The cut is one instant (collect): the active segment is sealed and
// the live set copied under the locks every journaling mutation
// appends under, so a record sits in the new base or in the new active
// segment, never in both and never in neither. The file I/O runs after
// the locks are released (WAL.commitBase); compactMu keeps one
// compaction at a time.
func (s *Store) CompactWAL() error {
	if s.wal == nil {
		return nil
	}
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	var (
		sealed uint64
		cut    int64
	)
	frames, err := s.collect(time.Time{}, func() (err error) {
		sealed, cut, err = s.wal.seal()
		return err
	})
	if err != nil {
		return err
	}
	return s.wal.commitBase(sealed, cut, frames)
}

// collect copies the directory's state at one instant — every shard's
// read lock, the tombstone lock and the event lock held, the locks
// every journaling mutation appends under — and renders it as records
// with no lock held: the certificates, then the tombstones, then the
// CRLs, each in content-hash order, so two stores holding the same
// state render the same records whatever their shard count or history.
// Certificates and tombstones that expire before now are left out; a
// zero now keeps them all.
//
// seal, when set, runs inside the instant: it is the compaction cut,
// and the records then carry the retained events too, so cursors
// survive the compaction. Each certificate's record carries the token
// of its newest retained publish event, as a live publish's record
// does, and the other events follow the rest as event records, oldest
// first. A publish event whose certificate is gone is left out, since
// a read would skip it anyway, unless it is the newest event: that one
// is kept as an event record, so replay continues the sequence after
// it instead of handing its numbers out again to events a cursor at
// the old head would then never see. A snapshot carries no events.
func (s *Store) collect(now time.Time, seal func() error) (records []sexp.Sexp, err error) {
	var (
		ents  []*entry
		tombs map[string]tombstone
		crls  []*cert.RevocationList
		evs   []Event
		boot  uint64
	)
	for _, sh := range s.shards {
		sh.mu.RLock()
	}
	s.tmu.Lock()
	s.events.mu.Lock()
	if seal != nil {
		err = seal()
	}
	if err == nil {
		for _, sh := range s.shards {
			for _, e := range sh.byHash {
				ents = append(ents, e)
			}
		}
		tombs, crls = maps.Clone(s.tombstones), s.crlsLocked()
		evs, boot = slices.Clone(s.events.ring), s.events.boot
	}
	s.events.mu.Unlock()
	s.tmu.Unlock()
	for _, sh := range s.shards {
		sh.mu.RUnlock()
	}
	if err != nil {
		return nil, err
	}
	published := map[string]uint64{} // certificate hash -> its newest retained publish event's token
	if seal == nil {
		evs = nil
	}
	for _, ev := range evs {
		if ev.Kind == EventPublish {
			published[string(ev.Hash)] = boot<<cursorSeqBits | ev.Seq
		}
	}
	live := func(expiry time.Time) bool { return now.IsZero() || expiry.IsZero() || now.Before(expiry) }
	records = make([]sexp.Sexp, 0, len(ents)+len(tombs)+len(crls)+len(evs))
	slices.SortFunc(ents, func(a, b *entry) int { return strings.Compare(a.hashKey, b.hashKey) })
	for _, e := range ents {
		if live(e.expiry) {
			records = append(records, publishRecord(e.cert, published[e.hashKey]))
			delete(published, e.hashKey)
		}
	}
	keys := make([]string, 0, len(tombs))
	for k, t := range tombs {
		if live(t.expiry) {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	for _, k := range keys {
		records = append(records, removeRecord([]byte(k), tombs[k]))
	}
	for _, rl := range crls {
		records = append(records, crlRecord(rl))
	}
	for i, ev := range evs {
		if ev.Kind != EventPublish || i == len(evs)-1 && published[string(ev.Hash)] != 0 {
			records = append(records, eventRecord(boot<<cursorSeqBits|ev.Seq, ev.Kind, ev.Hash))
		}
	}
	return records, nil
}

// CloseWAL syncs and closes the attached log (no-op when memory-only).
// The store itself remains queryable; further mutations fail.
func (s *Store) CloseWAL() error {
	if s.wal == nil {
		return nil
	}
	return s.wal.Close()
}

// SyncWAL forces journaled records to disk; sf-certd calls it on a
// timer under the "interval" fsync policy.
func (s *Store) SyncWAL() error {
	if s.wal == nil {
		return nil
	}
	return s.wal.Sync()
}

// HasHash reports whether the certificate with the given body hash is
// currently stored.
func (s *Store) HasHash(hash []byte) bool { return s.held(hash) != nil }

// held returns the stored certificate with the given body hash, or nil.
func (s *Store) held(hash []byte) *cert.Cert {
	for _, sh := range s.shards {
		sh.mu.RLock()
		e := sh.byHash[string(hash)]
		sh.mu.RUnlock()
		if e != nil {
			return e.cert
		}
	}
	return nil
}

// ByHashes returns the stored certificates matching the given hashes
// whose validity contains now; absent hashes are silently skipped. The
// gossip fetch endpoint serves from it.
func (s *Store) ByHashes(hashes [][]byte, now time.Time) []*cert.Cert {
	want := make(map[string]bool, len(hashes))
	for _, h := range hashes {
		want[string(h)] = true
	}
	var out []*cert.Cert
	for _, sh := range s.shards {
		sh.mu.RLock()
		for k := range want {
			if e, ok := sh.byHash[k]; ok && e.cert.Body.Validity.Contains(now) {
				out = append(out, e.cert)
			}
		}
		sh.mu.RUnlock()
	}
	return out
}

// Len returns the number of stored certificates.
func (s *Store) Len() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.RLock()
		n += len(sh.byHash)
		sh.mu.RUnlock()
	}
	return n
}

// Stats returns a snapshot of the traffic counters.
func (s *Store) Stats() Stats {
	s.tmu.Lock()
	tombs := int64(len(s.tombstones))
	s.tmu.Unlock()
	return Stats{
		Published:  s.published.Load(),
		Duplicates: s.duplicates.Load(),
		Rejected:   s.rejected.Load(),
		Queries:    s.queries.Load(),
		Removed:    s.removed.Load(),
		Swept:      s.swept.Load(),
		Evicted:    s.evicted.Load(),
		WALErrors:  s.walErrors.Load(),
		Tombstones: tombs,
	}
}

// resetStats zeroes the traffic counters; OpenDurable calls it after
// replay so Stats reports traffic since boot, not since the log began.
func (s *Store) resetStats() {
	s.published.Store(0)
	s.duplicates.Store(0)
	s.rejected.Store(0)
	s.queries.Store(0)
	s.removed.Store(0)
	s.swept.Store(0)
	s.evicted.Store(0)
	s.walErrors.Store(0)
}
