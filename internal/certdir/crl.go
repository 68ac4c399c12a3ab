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
// daemon's -crl file, an anti-entropy pull, a snapshot bootstrap, or
// a verifier's CRLFollower. The lists are verified and installed as
// one batch (one signature batch, one proof-cache epoch bump, dedup by
// content hash — cert.RevocationStore.Add), then the store journals
// each new list (Store.keepCRL: it survives a restart and rides the
// next snapshot), then the store is scanned ONCE with
// cert.RevocationStore.RevokedAt for what the lists void (eviction
// tombstones and emits revoke events), then each new list is rumored
// onward to rep's peers; the install dedup is what terminates that
// flood. A refused list is counted and skipped: CRLs arriving
// over the network carry a valid signature or they do nothing, and a
// valid one voids only certificates its own key signed, so neither a
// compromised peer nor a stranger can fabricate a revocation.
//
// st and rep may each be nil: a verifier following a directory has no
// store to evict from, and an unreplicated directory has no peers. now
// is the instant eviction judges CRL freshness at, unused without a
// store.
func InstallCRLs(revs *cert.RevocationStore, st *Store, rep *Replicator, lists []*cert.RevocationList, now time.Time) CRLInstall {
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
				st.keepCRL(rl)
			}
			if rep != nil {
				rep.EnqueueCRL(rl)
			}
		}
	}
	if res.Installed > 0 && st != nil {
		res.Evicted = st.EvictRevoked(revs.RevokedAt(now))
	}
	return res
}

// pullMissingCRLs fetches the lists peer holds and revs does not — diffed by
// content hash, so converged parties exchange only the hash list — and
// installs them through InstallCRLs. Replicator rounds and CRLFollower
// pulls are both this call.
func pullMissingCRLs(peer *Client, revs *cert.RevocationStore, st *Store, rep *Replicator, now time.Time) (CRLInstall, error) {
	held := revs.Lists()
	have := make([][]byte, len(held))
	for i, rl := range held {
		h := rl.Hash()
		have[i] = h[:]
	}
	lists, err := peer.CRLs(have)
	if err != nil {
		return CRLInstall{}, err
	}
	return InstallCRLs(revs, st, rep, lists, now), nil
}
