package certdir

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/principal"
	"repro/internal/sexp"
	"repro/internal/sfkey"
	"repro/internal/tag"
)

// FuzzEventsReply feeds arbitrary bytes to the client's events-reply
// decoder, the code that reads a possibly hostile directory's stream
// on behalf of provers, verifiers and peer directories. It must never
// panic, and everything a decoded reply would apply must verify: the
// certificates and lists a peer directory's follow (Replicator.apply)
// indexes into a fresh store and installs into a fresh revocation
// store. A decoded id is a store id (validStoreID) or none: the
// decoder bounds it at maxStoreID and ignores a malformed one. The
// seeds are real replies of a directory, each naming its id: its crl
// rows for a fresh cursor, its remove and revoke rows for a prover's
// request, a reset, its publish rows, the crl and publish replies with
// one list's and one certificate's signature forged, and the publish
// reply with its id overlong and with it not hex.
func FuzzEventsReply(f *testing.F) {
	now := time.Now()
	v := core.Between(now.Add(-time.Minute), now.Add(time.Hour))
	alice := sfkey.FromSeed([]byte("fuzzevents-alice"))
	bobP := principal.KeyOf(sfkey.FromSeed([]byte("fuzzevents-bob")).Public())
	st := NewStore(4)
	svc := NewService(st)
	svc.Revocations = cert.NewRevocationStore()
	removed := delegate(f, alice, bobP, tag.Prefix("a"), v)
	revoked := delegate(f, alice, bobP, tag.Prefix("b"), v)
	kept := delegate(f, alice, bobP, tag.Prefix("c"), v)
	for _, c := range []*cert.Cert{removed, revoked, kept} {
		if _, err := st.Publish(c, now); err != nil {
			f.Fatal(err)
		}
	}
	st.Remove(removed.Hash())
	lists := []*cert.RevocationList{
		cert.NewRevocationList(alice, v, revoked.Hash()),
		cert.NewRevocationList(alice, v, []byte("fuzzevents-other")),
	}
	InstallCRLs(svc.Revocations, st, lists, now)
	reply := func(req string) []byte {
		e, err := sexp.ParseOne([]byte(req))
		if err != nil {
			f.Fatal(err)
		}
		r, err := svc.handleEvents(context.Background(), e)
		if err != nil {
			f.Fatal(err)
		}
		return r.Canonical()
	}
	// forge swaps a reply's rows for one row of the given kind whose
	// signed body is forged.
	forge := func(reply []byte, kind string, body sexp.Sexp) []byte {
		e, _ := sexp.ParseOne(reply)
		return sexp.List(e.Nth(0), e.Child("next"), sexp.List(sexp.String("ev"), sexp.String(kind), body)).Canonical()
	}
	crls := reply("(6:events1:0(5:kinds3:crl))")
	f.Add(crls)
	f.Add(reply("(6:events1:0(5:kinds6:remove6:revoke))"))
	f.Add(reply("(6:events1:1(5:kinds6:remove6:revoke3:crl))")) // a cursor of no incarnation: reset
	forgedList := *lists[1]
	forgedList.Signature = append([]byte(nil), forgedList.Signature...)
	forgedList.Signature[0] ^= 1
	f.Add(forge(crls, EventCRL, forgedList.Sexp()))
	publishes := reply("(6:events1:0(5:kinds7:publish6:remove3:crl))")
	f.Add(publishes)
	forgedCert := *kept
	forgedCert.Signature = append([]byte(nil), forgedCert.Signature...)
	forgedCert.Signature[0] ^= 1
	f.Add(forge(publishes, EventPublish, forgedCert.Sexp()))
	// withID swaps a reply's id for the given atom.
	withID := func(reply []byte, id string) []byte {
		e, _ := sexp.ParseOne(reply)
		kids := []sexp.Sexp{e.Nth(0), e.Child("next"), sexp.List(sexp.String("id"), sexp.String(id))}
		for i := 3; i < e.Len(); i++ {
			kids = append(kids, e.Nth(i))
		}
		return sexp.List(kids...).Canonical()
	}
	f.Add(withID(publishes, strings.Repeat("ab", maxStoreID/2+1)))
	f.Add(withID(publishes, "not-hex"))

	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := sexp.ParseOne(data)
		if err != nil {
			return
		}
		r, err := decodeEventsReply(e)
		if err != nil {
			return
		}
		if r.id != "" && !validStoreID([]byte(r.id)) {
			t.Fatalf("decoded id %q is not a store id", r.id)
		}
		// A reset's Merkle round needs a peer; what the answer itself
		// applies is the property.
		r.reset = false
		into := NewStore(4)
		rep := NewReplicator(into, nil)
		rep.Clock = func() time.Time { return now }
		rep.Revocations = cert.NewRevocationStore()
		rep.apply(nil, false, r)
		ctx := publishCtx(now)
		ctx.Cache = nil
		for _, sh := range into.shards {
			for _, e := range sh.byHash {
				if err := e.cert.Verify(ctx); err != nil {
					t.Fatalf("a decoded reply indexed a certificate that does not verify: %v", err)
				}
			}
		}
		if st := rep.Stats(); st.CRLsPulled+st.CRLsRejected > int64(len(r.lists())) {
			t.Fatalf("install of %d lists reports %+v", len(r.lists()), st)
		}
		for _, rl := range rep.Revocations.Lists() {
			if err := rl.Verify(); err != nil {
				t.Fatalf("a decoded reply installed a list that does not verify: %v", err)
			}
		}
	})
}

// FuzzEventsRequest feeds arbitrary bodies to the directory's events
// endpoint, whose request decoder reads the cursor, wait, kinds and
// from clauses of a possibly hostile poll. It must never panic or
// answer 5xx. A poll it answers decodes to a request that encodes back
// to itself, and the answer decodes, names the store's id, carries
// only rows of the asked kinds, and none of the rows the store applied
// from the peer the poll names. The poll's context has ended, so no
// answer is held. The seeds are the polls of a prover, a verifier and
// a peer directory, and polls with no kind, an overlong from, a from
// that is not hex, a negative wait and an unknown clause.
func FuzzEventsRequest(f *testing.F) {
	now := time.Now()
	st := NewStore(4)
	svc := NewService(st)
	peer := strings.Repeat("ab", 16)
	heard := map[string]bool{}
	if _, err := st.Publish(mintSplit(f, "request-local", now), now); err != nil {
		f.Fatal(err)
	}
	for _, name := range []string{"request-heard", "request-removed"} {
		c := mintSplit(f, name, now)
		if added, _, err := st.indexVerified([]*cert.Cert{c}, now, false, false, peer); added != 1 {
			f.Fatalf("index from the peer: %v", err)
		}
		heard[string(c.Hash())] = true
	}
	st.remove(mintSplit(f, "request-removed", now).Hash(), true, peer)
	after := st.events.token(1)
	for _, q := range []eventsRequest{
		{kinds: []string{EventRemove, EventRevoke}},
		{kinds: []string{EventCRL}, wait: 30 * time.Second},
		{after: after, wait: 30 * time.Second, kinds: []string{EventPublish, EventRemove, EventCRL}, from: peer},
		{kinds: []string{EventPublish, EventRemove, EventCRL}, from: strings.Repeat("ab", maxStoreID/2+1)},
		{kinds: []string{EventPublish}, from: "not-hex"},
	} {
		f.Add(q.sexp().Canonical())
	}
	f.Add([]byte("(6:events1:0)"))
	f.Add([]byte("(6:events1:0(4:wait2:-1)(5:kinds7:publish))"))
	f.Add([]byte("(6:events1:0(5:kinds7:publish)(5:since1:0))"))
	done, cancel := context.WithCancel(context.Background())
	cancel()

	f.Fuzz(func(t *testing.T, body []byte) {
		w := httptest.NewRecorder()
		svc.ServeHTTP(w, httptest.NewRequest(http.MethodPost, PathEvents, bytes.NewReader(body)).WithContext(done))
		if w.Code >= 500 {
			t.Fatalf("status %d for %q", w.Code, body)
		}
		if w.Code != http.StatusOK {
			return
		}
		e, err := sexp.ParseOne(body)
		if err != nil {
			t.Fatalf("answered a body that does not parse: %v", err)
		}
		q, err := decodeEventsRequest(e)
		if err != nil {
			t.Fatalf("answered a poll the decoder refuses: %v", err)
		}
		if again, err := decodeEventsRequest(q.sexp()); err != nil || !reflect.DeepEqual(again, q) {
			t.Fatalf("poll %+v encodes to one that decodes to %+v (%v)", q, again, err)
		}
		resp, err := sexp.ParseOne(w.Body.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		r, err := decodeEventsReply(resp)
		if err != nil || r.id != st.id {
			t.Fatalf("answer names id %q (%v), want %q", r.id, err, st.id)
		}
		for _, row := range r.rows {
			if !slices.Contains(q.kinds, row.Kind) {
				t.Fatalf("a %s row answers a poll for %v", row.Kind, q.kinds)
			}
			h := row.Hash
			if row.cert != nil {
				h = row.cert.Hash()
			}
			if q.from == peer && heard[string(h)] {
				t.Fatalf("a %s row applied from %s answers that peer", row.Kind, peer)
			}
		}
	})
}
