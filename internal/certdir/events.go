package certdir

import (
	"cmp"
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/cert"
	"repro/internal/sexp"
)

// Event is one record of the directory's stream: a certificate (named
// by body hash, cert.Hash) was newly indexed here ("publish"), or
// stopped being servable here before its natural expiry — retracted by
// its publisher ("remove") or voided by a CRL ("revoke") — or the
// directory newly kept a revocation list ("crl", named by the list's
// content hash). Expiry is NOT an event: every consumer already checks
// validity windows.
//
// The stream is the directory's one live channel outward, and nothing
// on it runs on a timer. Provers cache fetched certificates until
// expiry, so a subscriber (prover.Subscription) long-polls the remove
// and revoke kinds and drops matching cached edges and proof-cache
// verdicts the moment the directory learns of the revocation;
// verifiers (CRLFollower) follow the crl kind; peer directories
// (Replicator) follow publish, remove and crl, and apply each record
// as it arrives.
type Event struct {
	Seq  uint64
	Kind string // "publish" | "remove" | "revoke" | "crl"
	Hash []byte // certificate body hash, or the list's content hash

	// from is the id of the peer directory whose stream (or Merkle
	// round) this record was applied from, "" for a record made here
	// or restored from the WAL. The stream never answers that peer with
	// it (split horizon, see Store.readStream).
	from string
}

// Event kinds.
const (
	EventPublish = "publish"
	EventRemove  = "remove"
	EventRevoke  = "revoke"
	EventCRL     = "crl"
)

// DefaultEventLogSize bounds the retained event tail. Events are a
// few dozen bytes each. A follower that falls further behind than the
// tail gets a reset instead of silently missing events: a prover
// flushes coarsely, a verifier re-reads every list, and a peer
// directory repairs with one Merkle round. A held poll cannot fall
// behind on kinds it did not ask for (see Store.follow), so publish
// volume alone never resets a prover or a verifier.
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
	ring   []Event       // ascending Seq
	next   uint64        // seq the next appended event will get
	boot   uint64        // per-incarnation nonce in every cursor's high bits
	notify chan struct{} // closed on append, then replaced
	max    int

	// skip holds, per requester id, a channel closed by the next
	// append not tagged with that id, and by every max/2-th append. A
	// held poll that names the id (from) waits on it, so the records it
	// would skip do not wake it, yet it re-reads, and moves its cursor,
	// before they could push that cursor out of the ring. At most
	// maxSkipWaiters ids wait this way, the rest on notify.
	skip map[string]chan struct{}
}

// maxSkipWaiters bounds EventLog.skip, which a poll naming a made-up
// id would otherwise grow until the next append.
const maxSkipWaiters = 64

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

// append records one event and wakes the waiting long polls it can
// answer (see skip). from tags it with the peer it was applied from
// (see Event). journal (when non-nil) is called under l.mu with the
// cursor token the new event will carry; when it fails, nothing is
// appended and its error is returned. Running the hook under the lock
// means ring order and journal order cannot disagree; the hook is file
// I/O only, never network.
func (l *EventLog) append(kind string, hash []byte, from string, journal func(token uint64) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if journal != nil {
		if err := journal(l.token(l.next)); err != nil {
			return err
		}
	}
	l.ring = append(l.ring, Event{Seq: l.next, Kind: kind, Hash: append([]byte(nil), hash...), from: from})
	l.next++
	l.trimLocked()
	close(l.notify)
	l.notify = make(chan struct{})
	all := l.next%uint64(max(l.max/2, 1)) == 0
	for id, ch := range l.skip {
		if id != from || all {
			close(ch)
			delete(l.skip, id)
		}
	}
	return nil
}

// wakeLocked returns the channel the next append that can answer a
// poll from the given requester closes: for a requester that names no
// id, every append. Caller holds l.mu.
func (l *EventLog) wakeLocked(from string) <-chan struct{} {
	if from == "" {
		return l.notify
	}
	ch, ok := l.skip[from]
	switch {
	case ok:
	case len(l.skip) >= maxSkipWaiters:
		return l.notify
	default:
		if l.skip == nil {
			l.skip = make(map[string]chan struct{})
		}
		ch = make(chan struct{})
		l.skip[from] = ch
	}
	return ch
}

// restore re-installs one event from its WAL record during replay,
// adopting the journaled token's boot nonce and sequence so cursors
// minted before the restart keep working. Once adopted, the boot nonce
// persists for the rest of the process: events appended after replay
// continue the journaled incarnation rather than starting a new one.
// The arguments are decodeEvent's: the token's nonce and sequence are
// both non-zero, and the hash is a copy the ring may keep. Replay
// meets events in record order, which is not sequence order where a
// compaction base put publish events in their certificates' records;
// settle restores the order once replay is done.
func (l *EventLog) restore(token uint64, kind string, hash []byte) {
	boot := token >> cursorSeqBits
	l.mu.Lock()
	defer l.mu.Unlock()
	if boot != l.boot {
		// First restored event (or a log spanning incarnations, which
		// compaction never produces): adopt the newest incarnation seen.
		l.boot = boot
		l.ring = l.ring[:0]
	}
	l.ring = append(l.ring, Event{Seq: token & (1<<cursorSeqBits - 1), Kind: kind, Hash: hash})
	if len(l.ring) > 2*l.max {
		l.settleLocked()
	}
}

// settle puts restored events in sequence order, keeps one event per
// sequence number (only a damaged log repeats one) and the newest max,
// and continues the sequence after the last. OpenDurable calls it once
// replay is done.
func (l *EventLog) settle() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.settleLocked()
}

func (l *EventLog) settleLocked() {
	slices.SortStableFunc(l.ring, func(a, b Event) int { return cmp.Compare(a.Seq, b.Seq) })
	l.ring = slices.CompactFunc(l.ring, func(a, b Event) bool { return a.Seq == b.Seq })
	if n := len(l.ring); n > 0 {
		l.next = l.ring[n-1].Seq + 1
	}
	l.trimLocked()
}

// trimLocked bounds the ring. Caller holds l.mu. The trimmed prefix is
// cleared and sliced off rather than copied away, so trimming costs
// O(1) per append; append's occasional reallocation releases the
// prefix's memory.
func (l *EventLog) trimLocked() {
	if cut := len(l.ring) - l.max; cut > 0 {
		clear(l.ring[:cut])
		l.ring = l.ring[cut:]
	}
}

// sinceLocked computes the answer for a cursor. Caller holds l.mu. It
// costs O(log n) plus the events it returns, so re-reading a held poll
// after each append stays cheap however full the ring is.
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
	i, _ := slices.BinarySearchFunc(l.ring, seq+1, func(e Event, s uint64) int { return cmp.Compare(e.Seq, s) })
	return slices.Clone(l.ring[i:]), next, reset
}

// streamBatch is one answer of the stream, as the directory reads it
// and as a client decodes it: its rows in log order, and the cursor to
// ask from next. more marks an answer cut at a bound: the rest of the
// tail it read comes on the next poll. id is the answering store's id
// as a decoded reply carried it, "" when it carried none. Decoded
// certificates and lists are not yet verified.
type streamBatch struct {
	rows  []streamRow
	next  uint64
	reset bool
	more  bool
	id    string
}

// streamRow is one row of an answer: an event, with the certificate a
// publish row carries or the list a crl row carries. Remove and revoke
// rows carry the hash alone.
type streamRow struct {
	Event
	cert *cert.Cert
	crl  *cert.RevocationList
}

// lists returns the revocation lists an answer carries, in order.
func (b streamBatch) lists() []*cert.RevocationList {
	var out []*cert.RevocationList
	for _, row := range b.rows {
		if row.crl != nil {
			out = append(out, row.crl)
		}
	}
	return out
}

// eventsRequest is one poll of the stream, as a client encodes it and
// the directory decodes it:
//
//	(events <after> [(wait <ms>)] (kinds <kind>...) [(from <id>)])
//
// after is the cursor, wait how long the directory may hold the poll
// while there is nothing to answer, kinds the rows asked for, and from
// the requesting directory's store id, which leaves out of the answer
// the rows the answering store applied from it (see readStream).
type eventsRequest struct {
	after uint64
	wait  time.Duration
	kinds []string
	from  string
}

// maxStoreID bounds a store id on the wire, in hex digits.
const maxStoreID = 64

// newStoreID returns a fresh random store id, or "" (no split horizon)
// if the system has no randomness to give.
func newStoreID() string {
	var id [16]byte
	if _, err := rand.Read(id[:]); err != nil {
		return ""
	}
	return hex.EncodeToString(id[:])
}

// validStoreID reports whether a wire atom is a store id: 1 to
// maxStoreID hex digits, an even number of them.
func validStoreID(id []byte) bool {
	if len(id) == 0 || len(id) > maxStoreID {
		return false
	}
	_, err := hex.DecodeString(string(id))
	return err == nil
}

// sexp encodes the request. A zero wait is left out, and so is an
// empty from.
func (q eventsRequest) sexp() sexp.Sexp {
	kids := []sexp.Sexp{sexp.String("events"), sexp.String(strconv.FormatUint(q.after, 10))}
	if q.wait > 0 {
		kids = append(kids, sexp.List(sexp.String("wait"), sexp.String(strconv.FormatInt(q.wait.Milliseconds(), 10))))
	}
	k := []sexp.Sexp{sexp.String("kinds")}
	for _, kind := range q.kinds {
		k = append(k, sexp.String(kind))
	}
	kids = append(kids, sexp.List(k...))
	if q.from != "" {
		kids = append(kids, sexp.List(sexp.String("from"), sexp.String(q.from)))
	}
	return sexp.List(kids...)
}

// decodeEventsRequest decodes a poll. It refuses a clause it does not
// know, an unknown kind, a malformed wait or from, and a request that
// names no kind. A wait over maxEventWait is cut to it, and a clause
// given twice takes its last value.
func decodeEventsRequest(e sexp.Sexp) (q eventsRequest, err error) {
	if e.Tag() != "events" || e.Len() < 2 || !e.Nth(1).IsAtom() {
		return q, fmt.Errorf("certdir: events wants (events <after> [(wait <ms>)] (kinds <kind>...) [(from <id>)])")
	}
	if q.after, err = strconv.ParseUint(e.Nth(1).Text(), 10, 64); err != nil {
		return q, fmt.Errorf("certdir: bad events cursor %q", e.Nth(1).Text())
	}
	for i := 2; i < e.Len(); i++ {
		switch c := e.Nth(i); {
		case c.Tag() == "wait" && c.Len() == 2 && c.Nth(1).IsAtom():
			ms, err := strconv.Atoi(c.Nth(1).Text())
			if err != nil || ms < 0 {
				return q, fmt.Errorf("certdir: bad events wait %q", c.Nth(1).Text())
			}
			q.wait = time.Duration(min(ms, int(maxEventWait/time.Millisecond))) * time.Millisecond
		case c.Tag() == "kinds" && c.Len() > 1:
			q.kinds = nil
			for j := 1; j < c.Len(); j++ {
				k := c.Nth(j).Text()
				if k != EventPublish && k != EventRemove && k != EventRevoke && k != EventCRL {
					return q, fmt.Errorf("certdir: unknown event kind %q", k)
				}
				q.kinds = append(q.kinds, k)
			}
		case c.Tag() == "from":
			if c.Len() != 2 || !c.Nth(1).IsAtom() || !validStoreID(c.Nth(1).Bytes()) {
				return q, fmt.Errorf("certdir: bad events from %s", c)
			}
			q.from = c.Nth(1).Text()
		default:
			return q, fmt.Errorf("certdir: unknown events clause %s", c)
		}
	}
	if len(q.kinds) == 0 {
		return q, fmt.Errorf("certdir: events names no kind; provers ask (kinds remove revoke)")
	}
	return q, nil
}

// follow answers one poll of the stream, q, long-polling up to q.wait
// while there is nothing to answer: each append after a read wakes it
// to read again from where that read ended, so a held poll moves past
// the events it did not ask for, and the rows readStream skips for the
// requester, and never falls behind the ring on them; the last read is
// the answer. ctx ends the poll early; a zero wait never blocks. See
// sinceLocked for cursor and reset semantics and readStream for what
// an answer holds.
func (s *Store) follow(ctx context.Context, q eventsRequest) streamBatch {
	ctx, cancel := context.WithTimeout(ctx, q.wait)
	defer cancel()
	after := q.after
	for {
		b, appended := s.readStream(after, q.kinds, q.from)
		if b.reset || len(b.rows) > 0 || ctx.Err() != nil {
			return b
		}
		after = b.next
		select {
		case <-appended:
		case <-ctx.Done():
		}
	}
}

// readStream reads the stream at one instant — under the CRL lock and
// the event lock, in the order keepCRL and collect take them — and
// then resolves what the rows name. appended is closed by the next
// append.
//
// Each row reports the present state of what it names. A publish row
// carries the certificate the store holds at read time and is skipped
// once the store no longer holds it; a remove row is skipped once the
// certificate is held again (re-published); a crl row carries the list
// and is skipped once the list has lapsed. So a follower that applies
// an answer in order ends where the directory stands, whatever it
// replays. For the crl kind, a fresh cursor (0) or a reset is answered
// with every list the store holds instead of the retained crl events,
// after the other rows and read with the cursor: a list kept after
// that instant has its event after the cursor. So a follower that
// installs every answer holds every live list, whatever it missed.
//
// Split horizon: when from names the requester's store id, the rows
// this store applied from that requester (Event.from) are skipped. The
// requester holds them already; skipping them spares it the echo of its
// own records. Skipped rows still advance the cursor and do not count
// toward the bounds below.
//
// An answer carries at most verifyBatch certificates and maxBody bytes
// of them. A longer one is cut before the first row past either bound,
// marked more, and its cursor is the last event it included: the rest
// comes on the next poll.
func (s *Store) readStream(after uint64, kinds []string, from string) (b streamBatch, appended <-chan struct{}) {
	s.tmu.Lock()
	s.events.mu.Lock()
	evs, next, reset := s.events.sinceLocked(after)
	appended, boot := s.events.wakeLocked(from), s.events.boot
	s.events.mu.Unlock()
	full := slices.Contains(kinds, EventCRL) && (after == 0 || reset)
	var lists []*cert.RevocationList
	if full {
		lists = s.crlsLocked()
	}
	s.tmu.Unlock()
	// Rows are resolved with no lock but each shard's or the CRL lock
	// held in turn: a publish takes its shard lock before the others.
	b = streamBatch{next: next, reset: reset}
	n, size := 0, 0
scan:
	for _, ev := range evs {
		row := streamRow{Event: ev}
		switch {
		case !slices.Contains(kinds, ev.Kind), from != "" && ev.from == from, ev.Kind == EventRemove && s.held(ev.Hash) != nil:
			continue
		case ev.Kind == EventPublish:
			if row.cert = s.held(ev.Hash); row.cert == nil {
				continue
			}
			if size += row.cert.Sexp().FormatLen(); n == verifyBatch || n > 0 && size > maxBody {
				b.next, b.more = boot<<cursorSeqBits|(ev.Seq-1), true
				break scan
			}
			n++
		case ev.Kind == EventCRL:
			s.tmu.Lock()
			row.crl = s.crls[[32]byte(ev.Hash)]
			s.tmu.Unlock()
			if full || row.crl == nil {
				continue
			}
		}
		b.rows = append(b.rows, row)
	}
	// The whole set goes last: a list newly installed from it evicts
	// what the rows before it indexed.
	for _, rl := range lists {
		b.rows = append(b.rows, streamRow{Event: Event{Kind: EventCRL}, crl: rl})
	}
	return b, appended
}

// Emitted reports how many events have ever been appended; the stats
// endpoint exposes it.
func (l *EventLog) Emitted() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next - 1
}
