package certdir

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cert"
)

// CRLFollower keeps an end verifier's RevocationStore current by
// periodically pulling revocation lists from a certificate directory
// — the verifier-side leg of CRL gossip. Directories already spread
// CRLs among themselves (Replicator) and provers already drop
// invalidated chains (Subscribe), but an enforcing server such as
// sf-dbserver learns CRLs only from its operator (-crl file, admin
// endpoint). A follower closes that last gap: revoke at any
// directory and, within one gossip round plus one follow interval,
// every following verifier's next authorization check re-verifies
// against the revocation (the install bumps the shared proof-cache
// epoch, so no cached verdict survives it).
//
// A pull is the same call a Replicator round makes (pullMissingCRLs →
// InstallCRLs) with no store and no peers: incremental (the peer is
// told which CRL hashes the store already holds) and
// verify-before-apply, so a hostile or corrupted directory cannot
// plant a CRL its signer never issued.
type CRLFollower struct {
	Client *Client
	Store  *cert.RevocationStore
	// Interval between pulls; DefaultGossipInterval when zero.
	// Set before Start.
	Interval time.Duration
	// OnError, when set, observes every failed Pull, whether a caller
	// or Start's loop drove it (the follower itself retries forever; a
	// directory briefly down just delays the next pull).
	OnError func(error)

	pulled   atomic.Int64 // CRLs newly installed
	rejected atomic.Int64 // CRLs refused (bad signature)
	rounds   atomic.Int64 // completed pull rounds

	mu   sync.Mutex
	stop chan struct{}
	done chan struct{}
}

// NewCRLFollower follows c's CRLs into st.
func NewCRLFollower(c *Client, st *cert.RevocationStore) *CRLFollower {
	return &CRLFollower{Client: c, Store: st}
}

// Pull performs one incremental round: fetch the CRLs the store does
// not hold, verify, install. Returns how many lists were newly
// installed; a failed round is also reported to OnError. Safe to call
// directly; Start wraps it in the loop every follower runs,
// sf-dbserver's -crl-follow included.
func (f *CRLFollower) Pull() (added int, err error) {
	// No store to evict from, so no eviction instant to supply.
	res, err := pullMissingCRLs(f.Client, f.Store, nil, nil, time.Time{})
	if err != nil {
		if f.OnError != nil {
			f.OnError(err)
		}
		return 0, err
	}
	f.pulled.Add(int64(res.Installed))
	f.rejected.Add(int64(res.Rejected))
	f.rounds.Add(1)
	return res.Installed, nil
}

// Start launches the pull loop. Stop halts it.
func (f *CRLFollower) Start() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.stop != nil {
		return
	}
	iv := f.Interval
	if iv <= 0 {
		iv = DefaultGossipInterval
	}
	f.stop = make(chan struct{})
	f.done = make(chan struct{})
	go func(stop, done chan struct{}) {
		defer close(done)
		t := time.NewTicker(iv)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				f.Pull() // a failure reaches OnError
			}
		}
	}(f.stop, f.done)
}

// Stop halts the loop started by Start and waits for it to exit.
func (f *CRLFollower) Stop() {
	f.mu.Lock()
	stop, done := f.stop, f.done
	f.stop, f.done = nil, nil
	f.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

// FollowerStats is a point-in-time counter snapshot.
type FollowerStats struct {
	Pulled   int64 // CRLs newly installed
	Rejected int64 // CRLs refused (bad signature)
	Rounds   int64 // completed pull rounds
}

// Stats snapshots the follower's counters.
func (f *CRLFollower) Stats() FollowerStats {
	return FollowerStats{
		Pulled:   f.pulled.Load(),
		Rejected: f.rejected.Load(),
		Rounds:   f.rounds.Load(),
	}
}
