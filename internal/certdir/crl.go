package certdir

import (
	"fmt"
	"time"

	"repro/internal/cert"
)

// CRLInstall reports what one InstallCRLs call did.
type CRLInstall struct {
	Installed int   // lists newly installed: verified and not held before
	Rejected  int   // lists refused for a bad signature
	Evicted   int   // certificates the new lists evicted from the store
	Err       error // the first refusal, naming the list's position; nil when every list verified
}

// InstallCRLs is the one way revocation lists take effect in the
// directory tier, whatever brought them: the admin endpoint, the
// daemon's -crl file, a peer's record stream, a snapshot bootstrap, or
// a verifier's CRLFollower. They are installed as one batch
// (cert.RevocationStore.Add: lists already held are skipped by content
// hash before any signature check, so a stream that repeats the whole
// set costs no signature work; one signature batch for the rest, one
// proof-cache epoch bump), then the store keeps each new
// list (Store.keepCRL: it survives a restart, rides the next
// snapshot, and goes out on the store's record stream as a crl event,
// which is how it reaches the peers that follow this directory), then
// the store is scanned ONCE with cert.RevocationStore.RevokedAt for
// what the lists void (eviction tombstones and emits revoke events). A
// refused list is counted and skipped: CRLs arriving over the network
// carry a valid signature or they do nothing, and a valid one voids
// only certificates its own key signed, so neither a compromised peer
// nor a stranger can fabricate a revocation.
//
// st may be nil: a verifier following a directory has no store to
// evict from. now is the instant eviction judges CRL freshness at,
// unused without a store.
func InstallCRLs(revs *cert.RevocationStore, st *Store, lists []*cert.RevocationList, now time.Time) CRLInstall {
	return installCRLs(revs, st, lists, now, "")
}

// installCRLs is InstallCRLs; from tags the crl events of the lists
// the store newly keeps with the id of the peer they came from
// (Event.from).
func installCRLs(revs *cert.RevocationStore, st *Store, lists []*cert.RevocationList, now time.Time, from string) CRLInstall {
	var res CRLInstall
	added, errs := revs.Add(lists...)
	for i, rl := range lists {
		switch {
		case errs[i] != nil:
			res.Rejected++
			if res.Err == nil {
				res.Err = fmt.Errorf("crl %d: %w", i+1, errs[i])
			}
		case added[i]:
			res.Installed++
			if st != nil {
				st.keepCRL(rl, false, from)
			}
		}
	}
	if res.Installed > 0 && st != nil {
		res.Evicted = st.EvictRevoked(revs.RevokedAt(now))
	}
	return res
}
