package certdir

import (
	"crypto/rand"
	"encoding/binary"
	"sync"
	"time"
)

// Event is one invalidation fact the directory emits towards its
// subscribers: a certificate (named by body hash, cert.Hash) stopped
// being servable here before its natural expiry — retracted by its
// publisher ("remove") or voided by a CRL ("revoke"). Expiry is NOT
// an event: every consumer already checks validity windows, so the
// stream carries only the facts a subscriber cannot infer from the
// certificates it holds.
//
// The stream is how the directory closes the last invalidation window
// named in the ROADMAP: provers cache fetched certificates until
// expiry, so without a push channel a revoked delegation keeps
// proving at every prover that fetched it. A subscriber
// (prover.Subscription) long-polls EventsSince and drops matching
// cached edges and proof-cache verdicts the moment the directory
// learns of the revocation.
type Event struct {
	Seq  uint64
	Kind string // "remove" | "revoke"
	Hash []byte // certificate body hash
}

// Event kinds.
const (
	EventRemove = "remove"
	EventRevoke = "revoke"
)

// DefaultEventLogSize bounds the retained event tail. Events are a
// few dozen bytes each; 4096 of them cover hours of realistic
// revocation traffic, and a subscriber that falls further behind gets
// a reset (it flushes coarsely) instead of silently missing events.
const DefaultEventLogSize = 4096

// EventLog is the bounded, append-only sequence of invalidation
// events behind the directory's /certdir/events endpoint. Sequence
// numbers start at 1 and never repeat within a process; the log
// retains only the most recent DefaultEventLogSize events, so a
// subscriber that lags past the retained tail — or that carries a
// cursor from a previous directory incarnation — is told to reset
// rather than left with a silent gap.
//
// Cursors handed to subscribers are tokens, not bare sequence
// numbers: the high bits carry a random per-incarnation boot nonce,
// the low cursorSeqBits the sequence. A cursor minted by a previous
// incarnation therefore never aliases a position in this one — it
// fails the nonce comparison and resets, even when the restarted
// directory has already emitted MORE events than the cursor's
// sequence (the case a bare comparison would silently swallow).
type EventLog struct {
	mu     sync.Mutex
	ring   []Event
	next   uint64        // seq the next appended event will get
	boot   uint64        // per-incarnation nonce in every cursor's high bits
	notify chan struct{} // closed on append, then replaced
	max    int
}

// cursorSeqBits is how much of a cursor token holds the sequence
// number; 2^40 events outlasts any process while leaving 24 bits of
// boot nonce (collision chance across a restart: 1 in 16 million —
// and a collision merely delays invalidation until the certificates
// expire, it never grants authority).
const cursorSeqBits = 40

func newEventLog(max int) *EventLog {
	if max <= 0 {
		max = DefaultEventLogSize
	}
	var nonce [8]byte
	if _, err := rand.Read(nonce[:]); err != nil {
		// Fallback: a constant nonce only weakens restart detection to
		// the bare sequence comparison, never correctness.
		nonce = [8]byte{1}
	}
	boot := binary.BigEndian.Uint64(nonce[:]) >> cursorSeqBits
	if boot == 0 {
		boot = 1 // boot 0 would make token(0) == 0, the fresh cursor
	}
	return &EventLog{next: 1, boot: boot, notify: make(chan struct{}), max: max}
}

// token turns a local sequence number into a subscriber-facing cursor.
func (l *EventLog) token(seq uint64) uint64 {
	return l.boot<<cursorSeqBits | seq
}

// append records one event and wakes every waiting long-poll.
func (l *EventLog) append(kind string, hash []byte) {
	l.appendWith(kind, hash, nil)
}

// appendWith is append with a journal hook: journal (when non-nil) is
// called under l.mu with the cursor token the new event will carry.
// Running the hook under the lock means ring order and journal order
// cannot disagree — the same discipline Store.publish applies under
// its shard lock; the hook is file I/O only, never network.
func (l *EventLog) appendWith(kind string, hash []byte, journal func(token uint64)) {
	l.mu.Lock()
	if journal != nil {
		journal(l.token(l.next))
	}
	l.ring = append(l.ring, Event{Seq: l.next, Kind: kind, Hash: append([]byte(nil), hash...)})
	l.next++
	l.trimLocked()
	close(l.notify)
	l.notify = make(chan struct{})
	l.mu.Unlock()
}

// restore re-installs one event from its WAL record during replay,
// adopting the journaled token's boot nonce and sequence so cursors
// minted before the restart keep working. Once adopted, the boot nonce
// persists for the rest of the process: events appended after replay
// continue the journaled incarnation rather than starting a new one.
// The arguments are decodeEvent's: the token's nonce and sequence are
// both non-zero, and the hash is a copy the ring may keep.
func (l *EventLog) restore(token uint64, kind string, hash []byte) {
	boot := token >> cursorSeqBits
	seq := token & (1<<cursorSeqBits - 1)
	l.mu.Lock()
	if boot != l.boot {
		// First restored event (or a log spanning incarnations, which
		// compaction never produces): adopt the newest incarnation seen.
		l.boot = boot
		l.ring = l.ring[:0]
	}
	l.ring = append(l.ring, Event{Seq: seq, Kind: kind, Hash: hash})
	l.next = seq + 1
	l.trimLocked()
	l.mu.Unlock()
}

// trimLocked bounds the ring. Caller holds l.mu.
func (l *EventLog) trimLocked() {
	if cut := len(l.ring) - l.max; cut > 0 {
		// Copy rather than reslice so the trimmed prefix's backing
		// memory (and the hashes it points at) is actually released.
		l.ring = append([]Event(nil), l.ring[cut:]...)
	}
}

// sinceLocked computes the answer for a cursor. Caller holds l.mu.
//
// Cursor semantics: after is the cursor (token) from the subscriber's
// previous poll; 0 is the fresh-subscription cursor and simply
// replays the retained tail (a fresh subscriber holds no state the
// old events could invalidate, so the replay is harmless — and
// treating 0 like any other cursor means a subscriber that connected
// while the log was still empty keeps working once events arrive).
// reset is true when a non-zero cursor cannot be served continuously:
// its boot nonce belongs to a previous directory incarnation, or it
// predates the retained tail (the subscriber lagged past the ring).
// A reset subscriber must invalidate coarsely — it cannot know what
// it missed; the retained tail is still returned so the freshest
// events apply precisely.
func (l *EventLog) sinceLocked(after uint64) (evs []Event, next uint64, reset bool) {
	latest := l.next - 1 // highest seq assigned so far
	next = l.token(latest)
	seq := uint64(0) // position to serve from; 0 replays the tail
	if after != 0 {
		switch s := after & (1<<cursorSeqBits - 1); {
		case after>>cursorSeqBits != l.boot:
			// Minted by a previous incarnation (or corrupt): however its
			// sequence compares to ours, the gap is unknowable.
			reset = true
		case s > latest:
			// Our boot but a future position: cannot happen for an honest
			// subscriber; treat as unknowable rather than trusting it.
			reset = true
		default:
			seq = s
			first := l.next // first retained seq (empty ring: nothing retained)
			if len(l.ring) > 0 {
				first = l.ring[0].Seq
			}
			if seq+1 < first {
				reset = true
			}
		}
	}
	for _, e := range l.ring {
		if e.Seq > seq {
			evs = append(evs, e)
		}
	}
	return evs, next, reset
}

// EventsSince returns the events after the cursor (see sinceLocked for
// cursor semantics), without waiting.
func (l *EventLog) EventsSince(after uint64) (evs []Event, next uint64, reset bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sinceLocked(after)
}

// Wait is EventsSince with a long-poll: when the cursor is already
// current it blocks until an event is appended or the timeout lapses,
// whichever comes first. A zero timeout never blocks.
func (l *EventLog) Wait(after uint64, timeout time.Duration) (evs []Event, next uint64, reset bool) {
	//sfvet:ignore clockcheck the long-poll deadline is a real-time I/O timeout, not certificate-validity time
	deadline := time.Now().Add(timeout)
	for {
		l.mu.Lock()
		evs, next, reset = l.sinceLocked(after)
		notify := l.notify
		l.mu.Unlock()
		if len(evs) > 0 || reset {
			return evs, next, reset
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return evs, next, reset
		}
		t := time.NewTimer(remain)
		select {
		case <-notify:
			t.Stop()
		case <-t.C:
			return l.EventsSince(after)
		}
	}
}

// Len reports how many events are currently retained.
func (l *EventLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.ring)
}

// Emitted reports how many events have ever been appended; the stats
// endpoint exposes it.
func (l *EventLog) Emitted() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next - 1
}
