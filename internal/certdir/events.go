package certdir

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"slices"
	"sync"
	"time"

	"repro/internal/cert"
)

// Event is one record of the directory's stream: a certificate
// (named by body hash, cert.Hash) stopped being servable here before
// its natural expiry — retracted by its publisher ("remove") or voided
// by a CRL ("revoke") — or the directory newly kept a revocation list
// ("crl", named by the list's content hash). Publishes and expiry are
// NOT events: every consumer already checks validity windows, so the
// stream carries only the facts a follower cannot infer from the
// certificates it holds.
//
// The stream is how a revocation reaches every party beyond the
// directory without a timer in the path. Provers cache fetched
// certificates until expiry, so a subscriber (prover.Subscription)
// long-polls the remove and revoke kinds and drops matching cached
// edges and proof-cache verdicts the moment the directory learns of
// the revocation; verifiers (CRLFollower) and peer directories
// (Replicator) read the crl kind and install each list as it arrives.
type Event struct {
	Seq  uint64
	Kind string // "remove" | "revoke" | "crl"
	Hash []byte // certificate body hash, or the list's content hash
}

// Event kinds.
const (
	EventRemove = "remove"
	EventRevoke = "revoke"
	EventCRL    = "crl"
)

// DefaultEventLogSize bounds the retained event tail. Events are a
// few dozen bytes each; 4096 of them cover hours of realistic
// revocation traffic, and a subscriber that falls further behind gets
// a reset (it flushes coarsely) instead of silently missing events.
const DefaultEventLogSize = 4096

// EventLog is the bounded, append-only sequence of events behind the
// directory's /certdir/events endpoint. Sequence numbers start at 1
// and never repeat within a process; the log
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

// append records one event and wakes every waiting long-poll. journal
// (when non-nil) is called under l.mu with the cursor token the new
// event will carry.
// Running the hook under the lock means ring order and journal order
// cannot disagree — the same discipline Store.publish applies under
// its shard lock; the hook is file I/O only, never network.
func (l *EventLog) append(kind string, hash []byte, journal func(token uint64)) {
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

// streamBatch is one answer of the stream, as the directory reads it
// and as a client decodes it: the remove and revoke events after the
// cursor, oldest first, the revocation lists, and the cursor to ask
// from next. Decoded lists are not yet verified.
type streamBatch struct {
	events []Event
	crls   []*cert.RevocationList
	next   uint64
	reset  bool
}

// follow answers one poll of the stream for the given kinds,
// long-polling up to wait while there is nothing of those kinds to
// answer: each append after a read wakes it to read again, and the
// last read is the answer. ctx ends the poll early; a zero wait never
// blocks. See sinceLocked for cursor and reset semantics.
//
// For the crl kind, a fresh cursor (0) or a reset is answered with
// every list the store holds instead of the retained crl events, read
// at one instant with the cursor it returns: a list kept after that
// instant has its event after the cursor. So a follower that installs
// every answer holds every live list, whatever it missed. A crl event
// whose list has lapsed since is skipped.
func (s *Store) follow(ctx context.Context, after uint64, kinds []string, wait time.Duration) streamBatch {
	ctx, cancel := context.WithTimeout(ctx, wait)
	defer cancel()
	for {
		b, appended := s.readStream(after, kinds)
		if b.reset || len(b.events)+len(b.crls) > 0 || ctx.Err() != nil {
			return b
		}
		select {
		case <-appended:
		case <-ctx.Done():
		}
	}
}

// readStream reads the stream at one instant: under the event lock,
// and for the crl kind under the CRL lock first, the order keepCRL and
// collect take them in. appended is closed by the next append.
func (s *Store) readStream(after uint64, kinds []string) (b streamBatch, appended <-chan struct{}) {
	crl := slices.Contains(kinds, EventCRL)
	if crl {
		s.tmu.Lock()
		defer s.tmu.Unlock()
	}
	s.events.mu.Lock()
	evs, next, reset := s.events.sinceLocked(after)
	appended = s.events.notify
	s.events.mu.Unlock()
	b.next, b.reset = next, reset
	full := crl && (after == 0 || reset)
	if full {
		b.crls = s.crlsLocked()
	}
	for _, ev := range evs {
		switch {
		case !slices.Contains(kinds, ev.Kind):
		case ev.Kind != EventCRL:
			b.events = append(b.events, ev)
		case !full && s.crls[[32]byte(ev.Hash)] != nil:
			b.crls = append(b.crls, s.crls[[32]byte(ev.Hash)])
		}
	}
	return b, appended
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
