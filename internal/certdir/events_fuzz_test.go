package certdir

import (
	"context"
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
// store. The seeds are
// real replies of a directory: its crl rows for a fresh cursor, its
// remove and revoke rows for a no-kind request, a reset, its publish
// rows, and the crl and publish replies with one list's and one
// certificate's signature forged.
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
	f.Add(reply("(6:events1:0)"))
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

	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := sexp.ParseOne(data)
		if err != nil {
			return
		}
		r, err := decodeEventsReply(e)
		if err != nil {
			return
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
