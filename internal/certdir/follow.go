package certdir

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cert"
)

// CRLFollower keeps an end verifier's RevocationStore current by
// following a certificate directory's event stream for crl records —
// the verifier-side leg of revocation. Directories already spread CRLs
// among themselves (Replicator) and provers already drop invalidated
// chains (Subscribe), but an enforcing server such as sf-dbserver
// learns CRLs only from its operator (-crl file, admin endpoint). A
// follower closes that last gap with no timer in the path: it holds a
// long poll open at the directory, so as soon as the directory
// installs a list the poll answers with it, and every following
// verifier's next authorization check re-verifies against the
// revocation (the install bumps the shared proof-cache epoch, so no
// cached verdict survives it).
//
// Every list goes through InstallCRLs with no store and no peers:
// verify-before-apply, so a hostile or corrupted directory cannot
// plant a CRL its signer never issued. The first poll, and the poll
// after a stream reset (the follower lagged past the directory's
// retained tail, or the directory restarted without its journal), is
// answered with the directory's whole CRL set.
type CRLFollower struct {
	Client *Client
	Store  *cert.RevocationStore
	// Interval bounds how long one poll is held open at the directory;
	// zero means the directory's cap (maxEventWait, 30 s). It is not a
	// pull period: a poll answers as soon as a list arrives. Set before
	// Start.
	Interval time.Duration
	// OnError, when set, observes every failed poll (the follower
	// itself retries forever; a directory briefly down just delays the
	// next poll).
	OnError func(error)

	pulled   atomic.Int64 // CRLs newly installed
	rejected atomic.Int64 // CRLs refused (bad signature)

	mu   sync.Mutex
	stop func() // cancels the running loop and waits for it; nil when stopped
}

// followRetry is the pause after a failed poll.
const followRetry = time.Second

// NewCRLFollower follows c's CRLs into st.
func NewCRLFollower(c *Client, st *cert.RevocationStore) *CRLFollower {
	return &CRLFollower{Client: c, Store: st}
}

// poll reads the stream once from the cursor after and installs what
// it carries, returning the cursor to poll from next and what the
// install did. A failed poll is reported to OnError.
func (f *CRLFollower) poll(ctx context.Context, after uint64) (next uint64, res CRLInstall, err error) {
	hold := f.Interval
	if hold <= 0 {
		hold = maxEventWait
	}
	r, err := f.Client.follow(ctx, after, hold, EventCRL)
	if err != nil {
		if f.OnError != nil && ctx.Err() == nil {
			f.OnError(err)
		}
		return after, res, err
	}
	// No store to evict from, so no eviction instant to supply.
	res = InstallCRLs(f.Store, nil, nil, r.crls, time.Time{})
	f.pulled.Add(int64(res.Installed))
	f.rejected.Add(int64(res.Rejected))
	return r.next, res, nil
}

// Start launches the follow loop. Stop halts it.
func (f *CRLFollower) Start() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.stop != nil {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	f.stop = func() { cancel(); <-done }
	go func() {
		defer close(done)
		var cursor uint64
		for ctx.Err() == nil {
			next, _, err := f.poll(ctx, cursor)
			if err != nil {
				select {
				case <-ctx.Done():
				case <-time.After(followRetry):
				}
			}
			cursor = next
		}
	}()
}

// Stop halts the loop started by Start, cancelling the poll in flight,
// and waits for it to exit.
func (f *CRLFollower) Stop() {
	f.mu.Lock()
	stop := f.stop
	f.stop = nil
	f.mu.Unlock()
	if stop != nil {
		stop()
	}
}

// FollowerStats is a point-in-time counter snapshot.
type FollowerStats struct {
	Pulled   int64 // CRLs newly installed
	Rejected int64 // CRLs refused (bad signature)
}

// Stats snapshots the follower's counters.
func (f *CRLFollower) Stats() FollowerStats {
	return FollowerStats{
		Pulled:   f.pulled.Load(),
		Rejected: f.rejected.Load(),
	}
}
