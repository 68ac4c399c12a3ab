package certdir

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/principal"
	"repro/internal/sexp"
	"repro/internal/sfkey"
	"repro/internal/tag"
)

// mintSplit returns a distinct certificate per name, valid for an hour.
func mintSplit(t testing.TB, name string, now time.Time) *cert.Cert {
	t.Helper()
	return delegate(t, sfkey.FromSeed([]byte("split-issuer")), principal.KeyOf(sfkey.FromSeed([]byte("split-"+name)).Public()),
		tag.Literal(name), core.Between(now.Add(-time.Minute), now.Add(time.Hour)))
}

// waitFollowing waits until rep's follow of peer has had an answer
// naming the peer's id, so its later polls carry from.
func waitFollowing(t *testing.T, rep *Replicator, peer *node) {
	t.Helper()
	waitUntil(t, "the follow to learn the peer's id", func() bool { return rep.idOf(peer.client) == peer.store.id })
}

// TestFollowSplitHorizonPair: two directories that follow each other
// converge on what is published and removed at one of them, and none of
// it comes back: the origin reads no echo, and its poll at the peer is
// answered with nothing while only its own records arrive there.
func TestFollowSplitHorizonPair(t *testing.T) {
	now := time.Now()
	a, b := newNode(t), newNode(t)
	repA, repB := fastReplicator(a.store, b), fastReplicator(b.store, a)
	repA.Start()
	defer repA.Stop()
	repB.Start()
	defer repB.Stop()
	waitFollowing(t, repA, b)

	const n = 40
	certs := make([]*cert.Cert, n)
	for i := range certs {
		certs[i] = mintSplit(t, fmt.Sprintf("pair-%d", i), now)
		if _, err := a.store.Publish(certs[i], now); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "B follows A's publishes", func() bool { return b.store.Len() == n })
	if !a.store.Remove(certs[0].Hash()) {
		t.Fatal("remove failed")
	}
	waitUntil(t, "B follows A's removal", func() bool { return b.store.Tombstoned(certs[0].Hash()) })
	// B's poll at A and A's poll at B are both held now; an echo would
	// be on its way back to A.
	time.Sleep(100 * time.Millisecond)
	if st := repA.Stats(); st.Echoes != 0 || st.Pulled != 0 {
		t.Fatalf("origin stats %+v, want no echo and nothing pulled", st)
	}
	if st := repB.Stats(); st.Echoes != 0 || st.Pulled != n {
		t.Fatalf("peer stats %+v, want %d pulled and no echo", st, n)
	}
	if la := logOf(a.store); len(la) != n+1 {
		t.Fatalf("origin log holds %d events, want its %d publishes and 1 removal", len(la), n)
	}
	ans := b.store.follow(context.Background(), eventsRequest{kinds: []string{EventPublish, EventRemove, EventCRL}, from: a.store.id})
	if len(ans.rows) != 0 {
		t.Fatalf("the peer answers the origin with %d of the origin's own rows", len(ans.rows))
	}
}

// TestFollowOldStyleFollowerGetsEveryRow: a follower that sends no from
// — a prover, a verifier, a directory built before the clause — is
// answered with every row a directory applied from its peer, and a
// follower that names that peer's id gets none of them but the same
// cursor.
func TestFollowOldStyleFollowerGetsEveryRow(t *testing.T) {
	now := time.Now()
	a, b := newNode(t), newNode(t)
	rep := fastReplicator(b.store, a)
	rep.Revocations = cert.NewRevocationStore()
	rep.Start()
	defer rep.Stop()
	waitFollowing(t, rep, a)
	all := []string{EventPublish, EventRemove, EventCRL}
	cursor := b.store.follow(context.Background(), eventsRequest{kinds: all}).next

	x, y := mintSplit(t, "old-x", now), mintSplit(t, "old-y", now)
	for _, c := range []*cert.Cert{x, y} {
		if _, err := a.store.Publish(c, now); err != nil {
			t.Fatal(err)
		}
	}
	// A removal tombstones only a certificate held, so X's removal waits
	// for its publish to cross.
	waitUntil(t, "B follows A's publishes", func() bool { return b.store.Len() == 2 })
	if !a.store.Remove(x.Hash()) {
		t.Fatal("remove failed")
	}
	rl := cert.NewRevocationList(sfkey.FromSeed([]byte("split-issuer")), core.Between(now.Add(-time.Minute), now.Add(time.Hour)), []byte("old-none"))
	InstallCRLs(cert.NewRevocationStore(), a.store, []*cert.RevocationList{rl}, now)
	waitUntil(t, "B follows A", func() bool {
		return b.store.HasHash(y.Hash()) && b.store.Tombstoned(x.Hash()) && len(b.store.CRLs()) == 1
	})

	old, err := b.client.follow(context.Background(), eventsRequest{after: cursor, kinds: all})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, row := range old.rows {
		got = append(got, row.Kind)
	}
	// X's publish row is skipped because B no longer holds X.
	if want := []string{EventPublish, EventRemove, EventCRL}; fmt.Sprint(got) != fmt.Sprint(want) || !bytes.Equal(old.rows[0].cert.Hash(), y.Hash()) {
		t.Fatalf("a follower without from got rows %v, want %v", got, want)
	}
	if old.id != b.store.id {
		t.Fatalf("the answer names id %q, want the store's %q", old.id, b.store.id)
	}
	hashes, _, _, err := pollInvalidations(b.client, cursor)
	if err != nil || len(hashes) != 1 || !bytes.Equal(hashes[0], x.Hash()) {
		t.Fatalf("a prover's poll got %d hashes (err %v), want X's removal", len(hashes), err)
	}
	split, err := b.client.follow(context.Background(), eventsRequest{after: cursor, kinds: all, from: a.store.id})
	if err != nil {
		t.Fatal(err)
	}
	if len(split.rows) != 0 || split.next != old.next {
		t.Fatalf("a follower naming the origin got %d rows and cursor %d, want none and %d", len(split.rows), split.next, old.next)
	}
}

// TestFollowSkippedRowsNeverReset: a held poll is not woken by the
// records it skips, yet a flood of them longer than the ring does not
// leave its cursor behind the retained tail (it re-reads every half
// ring): the poll answers the next record it does not skip, not a
// reset.
func TestFollowSkippedRowsNeverReset(t *testing.T) {
	st := NewStore(4)
	st.events = newEventLog(16)
	peer := strings.Repeat("cd", 16)
	kinds := []string{EventPublish, EventRemove, EventCRL}
	cursor := st.follow(context.Background(), eventsRequest{kinds: kinds}).next
	got := make(chan streamBatch, 1)
	go func() {
		got <- st.follow(context.Background(), eventsRequest{after: cursor, wait: 5 * time.Second, kinds: kinds, from: peer})
	}()
	// held reports whether the poll waits on its own wake channel: it
	// registers one on every read, and a wake removes it.
	held := func() bool {
		st.events.mu.Lock()
		defer st.events.mu.Unlock()
		_, ok := st.events.skip[peer]
		return ok
	}
	waitUntil(t, "the poll to be held", held)
	for i := 0; i < 100; i++ {
		st.emitEvent(EventRemove, []byte{byte(i)}, peer)
		waitUntil(t, "the poll to read again after a wake", held)
	}
	select {
	case b := <-got:
		t.Fatalf("the poll answered %d rows (reset %v) on records it skips", len(b.rows), b.reset)
	case <-time.After(50 * time.Millisecond):
	}
	st.emitEvent(EventRemove, []byte("mine"), "")
	select {
	case b := <-got:
		if b.reset || len(b.rows) != 1 || string(b.rows[0].Hash) != "mine" {
			t.Fatalf("answer holds %d rows, reset %v; want the one record not skipped", len(b.rows), b.reset)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the poll did not answer the record it does not skip")
	}
}

// oldDirectory stands in for a directory built before split horizon
// while old is set: its answers name no id and it refuses a poll that
// carries from, as such a directory refuses any clause it does not
// know. While old is not set, it is the directory it wraps.
type oldDirectory struct {
	svc   *Service
	old   atomic.Bool
	froms atomic.Int64 // polls refused for carrying from
}

func newOldDirectory(t *testing.T, st *Store) (*oldDirectory, *Client) {
	t.Helper()
	o := &oldDirectory{svc: NewService(st)}
	o.old.Store(true)
	ts := httptest.NewServer(o)
	t.Cleanup(ts.Close)
	return o, NewClient(ts.URL)
}

func (o *oldDirectory) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != PathEvents || !o.old.Load() {
		o.svc.ServeHTTP(w, r)
		return
	}
	body, _ := io.ReadAll(r.Body)
	if e, err := sexp.ParseOne(body); err == nil && e.Child("from") != nil {
		o.froms.Add(1)
		http.Error(w, "certdir: unknown events clause", http.StatusBadRequest)
		return
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	rec := httptest.NewRecorder()
	o.svc.ServeHTTP(rec, r)
	reply, err := sexp.ParseOne(rec.Body.Bytes())
	if rec.Code != http.StatusOK || err != nil {
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes())
		return
	}
	var kids []sexp.Sexp
	for i := 0; i < reply.Len(); i++ {
		if reply.Nth(i).Tag() != "id" {
			kids = append(kids, reply.Nth(i))
		}
	}
	w.Write(sexp.List(kids...).Canonical())
}

// TestFollowOldPeerNeverAskedFrom: a directory whose answers name no id
// is never sent from, and its follower still converges on what it
// publishes and removes.
func TestFollowOldPeerNeverAskedFrom(t *testing.T) {
	now := time.Now()
	a := NewStore(4)
	old, client := newOldDirectory(t, a)
	b := newNode(t)
	rep := NewReplicator(b.store, []*Client{client})
	rep.Interval = time.Hour
	rep.Start()
	defer rep.Stop()

	x, y := mintSplit(t, "mixed-x", now), mintSplit(t, "mixed-y", now)
	for _, c := range []*cert.Cert{x, y} {
		if _, err := a.Publish(c, now); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "B follows the old directory's publishes", func() bool { return b.store.Len() == 2 })
	if !a.Remove(x.Hash()) {
		t.Fatal("remove failed")
	}
	waitUntil(t, "B follows the old directory's removal", func() bool { return b.store.Tombstoned(x.Hash()) })
	if n := old.froms.Load(); n != 0 {
		t.Fatalf("the old directory was sent from %d times", n)
	}
	if st := rep.Stats(); st.Pulled != 2 || st.Echoes != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestDowngradedPeerIsAskedWithoutFrom: a follower that sends from to a
// directory that names its id keeps following when that directory is
// replaced by one from before split horizon: the one poll it refuses
// makes the follower forget the id, and the follow resumes without
// from. (Not named for the long-poll soak: the failed poll costs the
// follower's one-second retry pause.)
func TestDowngradedPeerIsAskedWithoutFrom(t *testing.T) {
	now := time.Now()
	a := NewStore(4)
	old, client := newOldDirectory(t, a)
	old.old.Store(false)
	b := newNode(t)
	rep := NewReplicator(b.store, []*Client{client})
	rep.Interval = time.Hour
	rep.Start()
	defer rep.Stop()
	waitUntil(t, "the follow to learn the peer's id", func() bool { return rep.idOf(client) == a.id })

	x, y := mintSplit(t, "downgrade-x", now), mintSplit(t, "downgrade-y", now)
	if _, err := a.Publish(x, now); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "B follows A", func() bool { return b.store.HasHash(x.Hash()) })
	old.old.Store(true)
	if _, err := a.Publish(y, now); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "B follows the downgraded A", func() bool { return b.store.HasHash(y.Hash()) })
	z := mintSplit(t, "downgrade-z", now)
	if _, err := a.Publish(z, now); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "B follows the downgraded A after a refused poll", func() bool { return b.store.HasHash(z.Hash()) })
	if n := old.froms.Load(); n != 1 {
		t.Fatalf("the downgraded directory refused %d polls, want the one sent before the follower forgot its id", n)
	}
}

// TestFollowSpoofedIDDelaysUntilMerkle: a peer that answers under
// another directory's id makes the directories that follow it tag what
// they apply from it with that id, so the directory it names is not
// streamed those records. That only delays them: the next Merkle round
// pulls them. Records made at the follower still stream at once.
func TestFollowSpoofedIDDelaysUntilMerkle(t *testing.T) {
	now := time.Now()
	a, b := newNode(t), newNode(t)
	m := NewStore(4)
	m.id = a.store.id // M answers under A's id
	tsM := httptest.NewServer(NewService(m))
	defer tsM.Close()
	spoofer := &node{store: m, client: NewClient(tsM.URL)}
	repB := fastReplicator(b.store, spoofer)
	repB.Start()
	defer repB.Stop()
	repA := fastReplicator(a.store, b)
	repA.Start()
	defer repA.Stop()
	waitFollowing(t, repB, spoofer)
	waitFollowing(t, repA, b)

	x, y := mintSplit(t, "spoof-x", now), mintSplit(t, "spoof-y", now)
	if _, err := m.Publish(x, now); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "B follows M", func() bool { return b.store.HasHash(x.Hash()) })
	if _, err := b.store.Publish(y, now); err != nil {
		t.Fatal(err)
	}
	// A's stream from B carries Y after X's row, so once A holds Y the
	// follow has passed X.
	waitUntil(t, "A follows B", func() bool { return a.store.HasHash(y.Hash()) })
	if a.store.HasHash(x.Hash()) {
		t.Fatal("B streamed A a record tagged with A's id")
	}
	if pulled, err := repA.Converge(); err != nil || pulled != 1 || !a.store.HasHash(x.Hash()) {
		t.Fatalf("the Merkle round pulled %d (err %v), want X", pulled, err)
	}
}

// countedDir is a directory of BenchmarkFollowPair: its service, with
// the events polls it answers and the rows they carry counted.
type countedDir struct {
	store                *Store
	url                  string
	polls, rows, publish atomic.Int64
}

func newCountedDir(b *testing.B) *countedDir {
	d := &countedDir{store: NewStore(4)}
	svc := NewService(d.store)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != PathEvents {
			svc.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		svc.ServeHTTP(rec, r)
		d.polls.Add(1)
		if reply, err := sexp.ParseOne(rec.Body.Bytes()); err == nil {
			for i := 0; i < reply.Len(); i++ {
				if row := reply.Nth(i); row.Tag() == "ev" {
					d.rows.Add(1)
					if row.Nth(1).Text() == EventPublish {
						d.publish.Add(1)
					}
				}
			}
		}
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes())
	}))
	b.Cleanup(ts.Close)
	d.url = ts.URL
	return d
}

// BenchmarkFollowPair publishes b.N certificates at directory A until
// all are visible at B, in a pair that follows each other with no
// Merkle round, and reports the stream traffic per publish: polls
// answered by either directory, rows they carried, echo rows (the
// publish rows B's answers carried back to A, where every certificate
// came from) and signature verifications. Split horizon takes the echo
// rows from about 1 per publish to 0.
func BenchmarkFollowPair(b *testing.B) {
	now := time.Now()
	certs := make([]*cert.Cert, b.N)
	for i := range certs {
		certs[i] = mintSplit(b, fmt.Sprintf("bench-%d", i), now)
	}
	da, db := newCountedDir(b), newCountedDir(b)
	repA := NewReplicator(da.store, []*Client{NewClient(db.url)})
	repB := NewReplicator(db.store, []*Client{NewClient(da.url)})
	for _, rep := range []*Replicator{repA, repB} {
		rep.Interval = time.Hour
		rep.Start()
		defer rep.Stop()
	}
	// Both follows have had their first answer: the polls are held.
	for da.polls.Load() == 0 || db.polls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	polls0, sigs0 := da.polls.Load()+db.polls.Load(), sfkey.SigVerifies()
	b.ResetTimer()
	for _, c := range certs {
		if _, err := da.store.Publish(c, now); err != nil {
			b.Fatal(err)
		}
	}
	for db.store.Len() < b.N {
		time.Sleep(100 * time.Microsecond)
	}
	b.StopTimer()
	sigs := sfkey.SigVerifies() - sigs0
	// An echo is on its way back once B has applied; wait for A's poll
	// at B to answer it.
	time.Sleep(50 * time.Millisecond)
	n := float64(b.N)
	b.ReportMetric(float64(da.polls.Load()+db.polls.Load()-polls0)/n, "polls/op")
	b.ReportMetric(float64(da.rows.Load()+db.rows.Load())/n, "rows/op")
	b.ReportMetric(float64(db.publish.Load())/n, "echo-rows/op")
	b.ReportMetric(float64(sigs)/n, "sigverifies/op")
}
