package cert

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/sexp"
	"repro/internal/sfkey"
)

// RevocationList is a signed statement by an issuing key that the
// listed certificates (identified by their body hashes) are void. Its
// validity window bounds the list's freshness, mirroring SPKI CRL
// semantics expressed in the logic (section 4.1).
type RevocationList struct {
	Signer    sfkey.PublicKey
	Hashes    [][]byte
	Validity  core.Validity
	Signature []byte
}

// NewRevocationList signs a CRL voiding the given certificate hashes.
func NewRevocationList(priv *sfkey.PrivateKey, v core.Validity, hashes ...[]byte) *RevocationList {
	rl := &RevocationList{Signer: priv.Public(), Validity: v}
	for _, h := range hashes {
		rl.Hashes = append(rl.Hashes, append([]byte(nil), h...))
	}
	rl.Signature = priv.Sign(rl.signingBytes())
	return rl
}

func (rl *RevocationList) signingBytes() []byte {
	kids := []sexp.Sexp{sexp.String("crl-body")}
	if v := rl.Validity.Sexp(); v != nil {
		kids = append(kids, v)
	}
	for _, h := range rl.Hashes {
		kids = append(kids, sexp.Atom(h))
	}
	return sexp.List(kids...).Canonical()
}

// Verify checks the CRL signature.
func (rl *RevocationList) Verify() error {
	if !rl.Signer.Verify(rl.signingBytes(), rl.Signature) {
		return fmt.Errorf("cert: bad CRL signature")
	}
	return nil
}

// Sexp encodes the CRL for transfer.
func (rl *RevocationList) Sexp() sexp.Sexp {
	kids := []sexp.Sexp{
		sexp.String("crl"),
		sexp.List(sexp.String("signer"), rl.Signer.Sexp()),
		sexp.List(sexp.String("signature"), sexp.Atom(rl.Signature)),
	}
	if v := rl.Validity.Sexp(); v != nil {
		kids = append(kids, v)
	}
	for _, h := range rl.Hashes {
		kids = append(kids, sexp.List(sexp.String("revoked"), sexp.Atom(h)))
	}
	return sexp.List(kids...)
}

// Hash returns the CRL's content identity — the hash of its canonical
// encoding (body and signature alike) — used to deduplicate installs
// and to key the lists a directory keeps. It is computed from the
// fields on every call, so a copy whose fields were changed reports
// its own content, never the original's. Each install asks once per
// list (RevocationStore.Add, and a directory keeping the list), and a
// CRL is small.
func (rl *RevocationList) Hash() [32]byte {
	return rl.Sexp().Hash()
}

// RevocationListFromSexp decodes a CRL.
func RevocationListFromSexp(e sexp.Sexp) (*RevocationList, error) {
	if e == nil || e.Tag() != "crl" {
		return nil, fmt.Errorf("cert: not a crl expression")
	}
	signerE := e.Child("signer")
	sigE := e.Child("signature")
	if signerE == nil || signerE.Len() != 2 || sigE == nil || sigE.Len() != 2 {
		return nil, fmt.Errorf("cert: crl missing signer or signature")
	}
	pub, err := sfkey.PublicFromSexp(signerE.Nth(1))
	if err != nil {
		return nil, err
	}
	v, err := core.ValidityFromSexp(e.Child("valid"))
	if err != nil {
		return nil, err
	}
	rl := &RevocationList{
		Signer:    pub,
		Validity:  v,
		Signature: append([]byte(nil), sigE.Nth(1).Bytes()...),
	}
	for i := 1; i < e.Len(); i++ {
		c := e.Nth(i)
		if c.Tag() == "revoked" && c.Len() == 2 && c.Nth(1).IsAtom() {
			rl.Hashes = append(rl.Hashes, append([]byte(nil), c.Nth(1).Bytes()...))
		}
	}
	return rl, nil
}

// RevocationStore aggregates verified CRLs and answers the one
// revocation question (VerifyContext.Revoked): a CRL voids a
// certificate iff it lists the certificate's hash, is fresh at the
// instant asked about, and was signed by the key that signed the
// certificate. Under SPKI only the key that granted a delegation may
// void it, so a validly signed CRL from anyone else — a stranger
// posting to an open directory, a verifier's own -crl file — voids
// nothing. Verifiers and control-plane guards ask through Bind,
// directories through RevokedAt; both run voids. It is safe for
// concurrent use.
//
// Installing a CRL bumps the revocation epoch of the process-wide
// shared proof cache (and any caches attached with AttachCache), so
// cached verification verdicts die with the certificates they rest
// on: the next presentation of an affected proof re-verifies against
// the new revocation state.
type RevocationStore struct {
	mu     sync.RWMutex
	lists  []*RevocationList
	seen   map[[32]byte]bool            // installed CRL hashes, for dedup (never swept; see Sweep)
	byHash map[string][]*RevocationList // certificate hash -> the lists naming it
	caches []*core.ProofCache
	view   uint64
}

// nextView hands each store a process-unique revocation view id;
// cached proof verdicts are shared only between verifiers holding the
// same view, so a verdict checked against this store's CRLs never
// lets a verifier with different revocation state skip its own check.
var nextView atomic.Uint64

// NewRevocationStore returns an empty store wired to the shared proof
// cache, with a fresh revocation view id.
func NewRevocationStore() *RevocationStore {
	return &RevocationStore{
		seen:   make(map[[32]byte]bool),
		byHash: make(map[string][]*RevocationList),
		caches: []*core.ProofCache{core.SharedProofCache()},
		view:   nextView.Add(1),
	}
}

// View returns the store's revocation view id for
// core.VerifyContext.RevocationView.
func (s *RevocationStore) View() uint64 { return s.view }

// Bind wires a verification context to this store: the Revoked hook
// (one locked index lookup per check, judged at the context's own
// clock at call time) and the matching revocation view, so the context
// may share cached verdicts with every other verifier bound to the
// same store.
func (s *RevocationStore) Bind(ctx *core.VerifyContext) {
	ctx.Revoked = func(h []byte, signer sfkey.PublicKey) bool {
		s.mu.RLock()
		defer s.mu.RUnlock()
		return voids(s.byHash[string(h)], signer, ctx.At())
	}
	ctx.RevocationView = s.view
}

// AttachCache registers an additional proof cache whose epoch this
// store bumps on revocation; verifiers running a private cache attach
// it here so their cached verdicts obey this store's CRLs.
func (s *RevocationStore) AttachCache(c *core.ProofCache) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.caches = append(s.caches, c)
}

// Add verifies and installs CRLs, with the two costs that scale badly
// per list amortized across the call: the signature checks run through
// one sfkey.BatchVerifier (aggregate pass, with bisection pinpointing
// any bad list instead of condemning the batch), and however many
// lists are newly installed, attached proof caches are flushed by ONE
// epoch bump. Installing a list already held (same content hash) is a
// no-op that checks no signature and bumps nothing, so re-reading an
// unchanged CRL file or re-receiving a followed CRL costs no signature
// work and never flushes the proof cache. Outcomes are reported per
// list, aligned with lists: added[i] true for newly installed lists,
// errs[i] non-nil for rejected ones (bad signature), both false/nil
// for deduplicated re-installs.
//
// A list that is not yet fresh (future NotBefore) schedules a second
// bump for the moment it becomes fresh: verdicts cached in the
// not-yet-fresh window would otherwise outlive the list's activation.
func (s *RevocationStore) Add(lists ...*RevocationList) (added []bool, errs []error) {
	added = make([]bool, len(lists))
	errs = make([]error, len(lists))
	var bv sfkey.BatchVerifier
	pos := make([]int, 0, len(lists)) // batch index -> lists index
	hashes := make([][32]byte, len(lists))
	for i, rl := range lists {
		if rl != nil {
			hashes[i] = rl.Hash()
		}
	}
	s.mu.RLock()
	for i, rl := range lists {
		switch {
		case rl == nil:
			errs[i] = fmt.Errorf("cert: nil CRL")
		case !s.seen[hashes[i]]:
			bv.Add(rl.Signer, rl.signingBytes(), rl.Signature)
			pos = append(pos, i)
		}
	}
	s.mu.RUnlock()
	for _, bi := range bv.Verify() {
		errs[pos[bi]] = fmt.Errorf("cert: bad CRL signature")
	}
	var installed []*RevocationList
	s.mu.Lock()
	if s.seen == nil {
		s.seen = make(map[[32]byte]bool)
	}
	for i, rl := range lists {
		if rl == nil || errs[i] != nil || s.seen[hashes[i]] {
			continue
		}
		s.seen[hashes[i]] = true
		s.lists = append(s.lists, rl)
		s.indexLocked(rl)
		added[i] = true
		installed = append(installed, rl)
	}
	caches := append([]*core.ProofCache(nil), s.caches...)
	s.mu.Unlock()
	if len(installed) == 0 {
		return added, errs
	}
	for _, c := range caches {
		c.BumpEpoch()
	}
	for _, rl := range installed {
		s.scheduleActivationBump(rl)
	}
	return added, errs
}

// scheduleActivationBump arranges the second cache flush for a CRL
// installed before its NotBefore: verdicts cached in the not-yet-fresh
// window must not outlive the list's activation. The schedule runs on
// the wall clock; harnesses verifying under a simulated clock call
// BumpEpoch themselves when their clock crosses a CRL's NotBefore.
func (s *RevocationStore) scheduleActivationBump(rl *RevocationList) {
	nb := rl.Validity.NotBefore
	if nb.IsZero() || !nb.After(time.Now()) {
		return
	}
	time.AfterFunc(time.Until(nb)+10*time.Millisecond, func() {
		s.mu.RLock()
		caches := append([]*core.ProofCache(nil), s.caches...)
		s.mu.RUnlock()
		for _, c := range caches {
			c.BumpEpoch()
		}
	})
}

// Lists returns a snapshot of the installed CRLs; the certificate
// directory serves them to gossip peers from here.
func (s *RevocationStore) Lists() []*RevocationList {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]*RevocationList(nil), s.lists...)
}

// Has reports whether a CRL with the given content hash is installed;
// gossip uses it to diff CRL sets without shipping the lists.
func (s *RevocationStore) Has(h [32]byte) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.seen[h]
}

// RevokedAt returns the revocation predicate as of the given instant,
// independent of any VerifyContext: certificate directories pass it to
// Store.EvictRevoked. The predicate runs once per stored certificate
// there, so the fresh slice of the index is snapshotted once and each
// call is a map lookup — no store lock, no scan over every revoked
// hash.
func (s *RevocationStore) RevokedAt(at time.Time) func(certHash []byte, signer sfkey.PublicKey) bool {
	s.mu.RLock()
	fresh := make(map[string][]*RevocationList, len(s.byHash))
	for h, lists := range s.byHash {
		for _, rl := range lists {
			if rl.Validity.Contains(at) {
				fresh[h] = append(fresh[h], rl)
			}
		}
	}
	s.mu.RUnlock()
	return func(h []byte, signer sfkey.PublicKey) bool { return voids(fresh[string(h)], signer, at) }
}

// voids is the revocation rule, written once: some list among those
// naming a certificate's hash is fresh at at and was signed by the key
// that signed the certificate.
func voids(lists []*RevocationList, signer sfkey.PublicKey, at time.Time) bool {
	for _, rl := range lists {
		if rl.Signer.Equal(signer) && rl.Validity.Contains(at) {
			return true
		}
	}
	return false
}

// indexLocked adds one installed CRL's hashes to the byHash index;
// the caller holds the write lock.
func (s *RevocationStore) indexLocked(rl *RevocationList) {
	if s.byHash == nil {
		s.byHash = make(map[string][]*RevocationList)
	}
	for _, h := range rl.Hashes {
		s.byHash[string(h)] = append(s.byHash[string(h)], rl)
	}
}

// Sweep drops every CRL whose validity window has lapsed (NotAfter
// before now): the certificates such a list voided have expired too
// wherever the CRL mattered — a CRL bounded to outlive its targets is
// the issuer's job, and a lapsed list no longer affects any verdict
// (voids checks freshness) — so keeping it only bloats the store and
// the hash index. The dedup set is intentionally NOT swept: a peer
// still holding a lapsed CRL would otherwise re-gossip it every round,
// and each reinstall would bump the proof-cache epoch — a flush loop
// bought by nothing. It returns the number of lists dropped. No epoch
// bump is needed: only positive verdicts are cached, so no cached
// state rests on a list's presence.
func (s *RevocationStore) Sweep(now time.Time) (dropped int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	kept := s.lists[:0]
	for _, rl := range s.lists {
		if na := rl.Validity.NotAfter; !na.IsZero() && na.Before(now) {
			dropped++
			continue
		}
		kept = append(kept, rl)
	}
	if dropped == 0 {
		return 0
	}
	s.lists = kept
	s.byHash = make(map[string][]*RevocationList, len(s.byHash))
	for _, rl := range s.lists {
		s.indexLocked(rl)
	}
	return dropped
}

// Revalidator is a trivial in-process one-time revalidation service:
// certificates registered as suspended fail revalidation. Real
// deployments would consult the issuer over a channel; the interface
// to the verifier is identical.
type Revalidator struct {
	mu        sync.RWMutex
	suspended map[string]bool
}

// NewRevalidator returns a service that confirms everything.
func NewRevalidator() *Revalidator {
	return &Revalidator{suspended: make(map[string]bool)}
}

// Suspend marks a certificate hash as no longer confirmable.
func (r *Revalidator) Suspend(certHash []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.suspended[string(certHash)] = true
}

// Restore lifts a suspension.
func (r *Revalidator) Restore(certHash []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.suspended, string(certHash))
}

// Revalidate implements the VerifyContext.Revalidate signature.
func (r *Revalidator) Revalidate(certHash []byte, where string) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.suspended[string(certHash)] {
		return fmt.Errorf("cert: issuer at %q no longer confirms certificate", where)
	}
	return nil
}
