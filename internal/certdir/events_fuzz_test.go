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
// panic, and every list a decoded reply would install must verify:
// InstallCRLs into a fresh revocation store keeps nothing forged. The
// seeds are real replies of a directory: its crl rows for a fresh
// cursor, its remove and revoke rows for a no-kind request, a reset,
// and the crl reply with one list's signature forged.
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
	for _, c := range []*cert.Cert{removed, revoked} {
		if _, err := st.Publish(c, now); err != nil {
			f.Fatal(err)
		}
	}
	st.Remove(removed.Hash())
	lists := []*cert.RevocationList{
		cert.NewRevocationList(alice, v, revoked.Hash()),
		cert.NewRevocationList(alice, v, []byte("fuzzevents-other")),
	}
	InstallCRLs(svc.Revocations, st, nil, lists, now)
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
	crls := reply("(6:events1:0(5:kinds3:crl))")
	f.Add(crls)
	f.Add(reply("(6:events1:0)"))
	f.Add(reply("(6:events1:1(5:kinds6:remove6:revoke3:crl))")) // a cursor of no incarnation: reset
	forged := *lists[1]
	forged.Signature = append([]byte(nil), forged.Signature...)
	forged.Signature[0] ^= 1
	e, _ := sexp.ParseOne(crls)
	f.Add(sexp.List(e.Nth(0), e.Nth(1), e.Nth(2),
		sexp.List(sexp.String("ev"), sexp.String(EventCRL), forged.Sexp())).Canonical())

	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := sexp.ParseOne(data)
		if err != nil {
			return
		}
		r, err := decodeEventsReply(e)
		if err != nil {
			return
		}
		revs := cert.NewRevocationStore()
		res := InstallCRLs(revs, nil, nil, r.crls, now)
		if res.Installed+res.Rejected > len(r.crls) {
			t.Fatalf("install of %d lists reports %+v", len(r.crls), res)
		}
		for _, rl := range revs.Lists() {
			if err := rl.Verify(); err != nil {
				t.Fatalf("a decoded reply installed a list that does not verify: %v", err)
			}
		}
	})
}
