package certdir

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cert"
)

// streamFollower is the one loop that follows a directory's record
// stream (events.go): it long-polls the kinds it names from a cursor,
// starting at 0, and hands every answer to apply before it polls
// again. Peer directories (Replicator), verifiers (CRLFollower) and
// provers (Client.FollowInvalidations) all run it; they differ in the
// kinds, in apply and in self.
type streamFollower struct {
	client *Client
	kinds  []string
	// self, when set, is the following store's id. It is sent as
	// (from <self>) once the last answer named the directory's own id,
	// which only a directory that filters by it does: an older one
	// refuses the clause.
	self string
	// hold bounds how long one poll is held open at the directory;
	// zero or less means the directory's cap (maxEventWait).
	hold time.Duration
	// apply applies one answer; replay marks one that replays the
	// directory's retained tail (see poll).
	apply func(replay bool, b streamBatch)
	// onErr, when set, hears of every failed poll.
	onErr func(error)
}

// followRetry is the pause after a failed poll, and after an answer
// that made no progress.
const followRetry = time.Second

// loops runs the goroutines of a follower or a replicator until stop.
type loops struct {
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// start runs each function in its own goroutine with a context that
// stop cancels.
func (l *loops) start(runs ...func(context.Context)) {
	ctx, cancel := context.WithCancel(context.Background())
	l.cancel = cancel
	for _, run := range runs {
		l.wg.Add(1)
		go func() {
			defer l.wg.Done()
			run(ctx)
		}()
	}
}

// stop cancels the goroutines start launched, and the polls they hold,
// and waits for them to exit. It is a no-op before start and when
// repeated.
func (l *loops) stop() {
	if l.cancel != nil {
		l.cancel()
	}
	l.wg.Wait()
}

// poll reads the stream once with q, for the follower's kinds, and
// applies the answer. The answer replays the directory's retained tail
// — history the follower may have moved past — when q.after is 0,
// when it is a reset, and when it continues a replay the directory cut
// at its bounds (replaying); replay reports which. A failed poll is
// reported to onErr, unless ctx ended it.
func (f streamFollower) poll(ctx context.Context, q eventsRequest, replaying bool) (b streamBatch, replay bool, err error) {
	q.kinds = f.kinds
	b, err = f.client.follow(ctx, q)
	replay = q.after == 0 || replaying || b.reset
	switch {
	case err == nil:
		f.apply(replay, b)
	case f.onErr != nil && ctx.Err() == nil:
		f.onErr(err)
	}
	return b, replay, err
}

// run polls until ctx ends. It waits followRetry after a failed poll,
// after a reset that follows a reset, and after an answer that came
// back with the cursor it was asked from in less than half its hold (an
// idle poll that ran its hold out is not one): a directory answering
// every poll at once without progress (a hostile one that ignores the
// cursor, one that always resets) then costs a few polls a second, not
// a tight loop.
//
// It sends self as from only while the last answer named the
// directory's id, and a failed poll forgets it, so a directory replaced
// by one that refuses the clause is next asked without it. With a self
// to send, the first poll and the first after a failed one are not
// held: their answer comes at once and tells whether the directory
// names an id, so the follower is not answered without from while it
// waits to learn that.
func (f streamFollower) run(ctx context.Context) {
	var (
		cursor uint64
		reset  bool   // the last answer was a reset
		more   bool   // the last answer was a replay cut short
		from   string // sent with the next poll
		probe  = true // no answer since the start or the last failed poll
	)
	if f.hold <= 0 {
		f.hold = maxEventWait
	}
	for ctx.Err() == nil {
		q := eventsRequest{after: cursor, wait: f.hold, from: from}
		if probe && f.self != "" {
			q.wait = 0
		}
		start := time.Now()
		b, replay, err := f.poll(ctx, q, more)
		stalled := err != nil
		probe, from = err != nil, ""
		if err == nil {
			stalled = b.reset && reset || b.next == cursor && time.Since(start) < q.wait/2
			cursor, reset, more = b.next, b.reset, replay && b.more
			if b.id != "" {
				from = f.self
			}
		}
		if stalled {
			select {
			case <-ctx.Done():
			case <-time.After(followRetry):
			}
		}
	}
}

// CRLFollower keeps an end verifier's RevocationStore current by
// following a certificate directory's record stream for crl records —
// the verifier-side leg of revocation. Directories already spread CRLs
// among themselves (Replicator) and provers already drop invalidated
// chains (Client.FollowInvalidations), but an enforcing server such as
// sf-dbserver learns CRLs only from its operator (-crl file, admin
// endpoint). A follower closes that last gap with no timer in the
// path: it holds a long poll open at the directory, so as soon as the
// directory installs a list the poll answers with it, and every
// following verifier's next authorization check re-verifies against
// the revocation (the install bumps the shared proof-cache epoch, so
// no cached verdict survives it).
//
// Every list goes through InstallCRLs with no store: verify-before-
// apply, so a hostile or corrupted directory cannot plant a CRL its
// signer never issued. The first poll, and the poll after a stream
// reset (the follower lagged past the directory's retained tail, or
// the directory restarted without its journal), is answered with the
// directory's whole CRL set.
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

	loops
}

// NewCRLFollower follows c's CRLs into st.
func NewCRLFollower(c *Client, st *cert.RevocationStore) *CRLFollower {
	return &CRLFollower{Client: c, Store: st}
}

// stream is the follower's loop: the crl kind, each answer's lists
// installed and counted. No store to evict from, so no eviction instant
// to supply.
func (f *CRLFollower) stream() streamFollower {
	return streamFollower{client: f.Client, kinds: []string{EventCRL}, hold: f.Interval, onErr: f.OnError, apply: func(_ bool, b streamBatch) {
		res := InstallCRLs(f.Store, nil, b.lists(), time.Time{})
		f.pulled.Add(int64(res.Installed))
		f.rejected.Add(int64(res.Rejected))
	}}
}

// Start launches the follow loop, once. Stop halts it.
func (f *CRLFollower) Start() { f.start(f.stream().run) }

// Stop halts the loop started by Start, cancelling the poll in flight,
// and waits for it to exit.
func (f *CRLFollower) Stop() { f.stop() }

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
