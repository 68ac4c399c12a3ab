package certdir

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/principal"
	"repro/internal/sexp"
	"repro/internal/sfkey"
	"repro/internal/tag"
)

// crlPeer is a peer that serves exactly the given lists — as the crl
// rows of its event stream (ignoring the asker's cursor, as a lagging
// or hostile peer would) and as the CRL frames of a snapshot stream —
// whether or not they verify. A real directory cannot be made to hold
// a forged list, so the pull paths are fed from this stand-in.
func crlPeer(t *testing.T, lists ...*cert.RevocationList) *Client {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case PathEvents:
			kids := []sexp.Sexp{sexp.String("events"), sexp.List(sexp.String("next"), sexp.String("1"))}
			for _, rl := range lists {
				kids = append(kids, sexp.List(sexp.String("ev"), sexp.String(EventCRL), rl.Sexp()))
			}
			w.Write(sexp.List(kids...).Canonical())
		case PathSnapshot:
			var records []sexp.Sexp
			for _, rl := range lists {
				records = append(records, crlRecord(rl))
			}
			w.Write(snapshotStream(records...))
		default:
			http.Error(w, "crlPeer: no such endpoint", http.StatusNotFound)
		}
	}))
	t.Cleanup(ts.Close)
	return NewClient(ts.URL)
}

// TestCRLInstallPathsAgree: however a revocation list reaches a
// process — admin endpoint, a replicator's follow of a peer's stream,
// snapshot bootstrap, or a verifier's follower — it goes through
// InstallCRLs, so a fresh
// list, a re-delivered one and a forged one have the same installed /
// rejected / evicted outcome on every path. Only the follower differs,
// and only in evicting nothing: it has no store.
func TestCRLInstallPathsAgree(t *testing.T) {
	now := time.Now()
	v := core.Between(now.Add(-time.Minute), now.Add(time.Hour))
	issuer := sfkey.FromSeed([]byte("crlpaths-issuer"))
	victim := delegate(t, issuer, principal.KeyOf(sfkey.FromSeed([]byte("crlpaths-victim")).Public()), tag.All(), v)
	survivor := delegate(t, issuer, principal.KeyOf(sfkey.FromSeed([]byte("crlpaths-survivor")).Public()), tag.All(), v)

	fresh := cert.NewRevocationList(issuer, v, victim.Hash())
	forged := *cert.NewRevocationList(issuer, v, survivor.Hash())
	forged.Signature = append([]byte(nil), forged.Signature...)
	forged.Signature[0] ^= 1

	type outcome struct{ installed, rejected, evicted int }
	// dir is one receiving process: a directory (store + revocations +
	// an unstarted replicator), or just revocations for the follower.
	type dir struct {
		store *Store
		revs  *cert.RevocationStore
		rep   *Replicator
	}
	pulled := func(d *dir, pull func() error) (installed, rejected int, err error) {
		before := d.rep.Stats()
		err = pull()
		after := d.rep.Stats()
		return int(after.CRLsPulled - before.CRLsPulled), int(after.CRLsRejected - before.CRLsRejected), err
	}
	paths := []struct {
		name     string
		hasStore bool
		// deliver hands rl to d by this path and returns what the path
		// itself reported as installed and rejected.
		deliver func(t *testing.T, d *dir, rl *cert.RevocationList) (installed, rejected int)
	}{
		{"admin endpoint", true, func(t *testing.T, d *dir, rl *cert.RevocationList) (int, int) {
			svc := NewService(d.store)
			svc.Revocations, svc.Replicator = d.revs, d.rep
			ts := httptest.NewServer(svc)
			defer ts.Close()
			resp, err := NewClient(ts.URL).roundTrip(context.Background(), PathAdminCRL, rl.Sexp(), 0)
			switch {
			case err != nil:
				return 0, 1 // a 400: the list was refused
			case resp.Tag() == "crl-installed":
				return 1, 0
			}
			return 0, 0
		}},
		{"replicator follow", true, func(t *testing.T, d *dir, rl *cert.RevocationList) (int, int) {
			peer := crlPeer(t, rl)
			installed, rejected, err := pulled(d, func() error {
				b, err := peer.follow(context.Background(), eventsRequest{kinds: []string{EventPublish, EventRemove, EventCRL}})
				d.rep.apply(peer, true, b)
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			return installed, rejected
		}},
		{"snapshot bootstrap", true, func(t *testing.T, d *dir, rl *cert.RevocationList) (int, int) {
			peer := crlPeer(t, rl)
			installed, rejected, err := pulled(d, func() error {
				_, err := d.rep.bootstrapFrom(context.Background(), peer)
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			return installed, rejected
		}},
		{"follower pull", false, func(t *testing.T, d *dir, rl *cert.RevocationList) (int, int) {
			f := NewCRLFollower(crlPeer(t, rl), d.revs)
			_, installed, err := pollOnce(f, 0)
			if err != nil {
				t.Fatal(err)
			}
			return installed, int(f.Stats().Rejected)
		}},
	}
	steps := []struct {
		name string
		rl   *cert.RevocationList
		want outcome // for a path with a store
	}{
		{"fresh", fresh, outcome{installed: 1, evicted: 1}},
		{"duplicate", fresh, outcome{}},
		{"forged", &forged, outcome{rejected: 1}},
	}
	for _, p := range paths {
		d := &dir{revs: cert.NewRevocationStore()}
		if p.hasStore {
			d.store = NewStore(4)
			for _, c := range []*cert.Cert{victim, survivor} {
				if _, err := d.store.Publish(c, now); err != nil {
					t.Fatal(err)
				}
			}
			d.rep = NewReplicator(d.store, nil)
			d.rep.Revocations = d.revs
		}
		for _, s := range steps {
			want := s.want
			var evictedBefore int64
			if p.hasStore {
				evictedBefore = d.store.Stats().Evicted
			} else {
				want.evicted = 0
			}
			got := outcome{}
			got.installed, got.rejected = p.deliver(t, d, s.rl)
			if p.hasStore {
				got.evicted = int(d.store.Stats().Evicted - evictedBefore)
			}
			if got != want {
				t.Errorf("%s, %s list: outcome %+v, want %+v", p.name, s.name, got, want)
			}
		}
		// The end state agrees too: the fresh list is held, the forged
		// one is not, and only the victim is gone.
		if !d.revs.Has(fresh.Hash()) || d.revs.Has(forged.Hash()) || len(d.revs.Lists()) != 1 {
			t.Errorf("%s: revocation store holds %d lists, want exactly the fresh one", p.name, len(d.revs.Lists()))
		}
		if p.hasStore && (len(d.store.CRLs()) != 1 || d.store.CRLs()[0].Hash() != fresh.Hash()) {
			t.Errorf("%s: store keeps %d lists, want exactly the fresh one", p.name, len(d.store.CRLs()))
		}
		if p.hasStore && (d.store.HasHash(victim.Hash()) || !d.store.HasHash(survivor.Hash()) || !d.store.Tombstoned(victim.Hash())) {
			t.Errorf("%s: store end state wrong (victim stored=%v tombstoned=%v, survivor stored=%v)", p.name,
				d.store.HasHash(victim.Hash()), d.store.Tombstoned(victim.Hash()), d.store.HasHash(survivor.Hash()))
		}
	}
}

// TestOneRevocationRule: a fresh CRL voids a certificate iff it was
// signed by the key that signed the certificate, and the directory's
// eviction, a following verifier and the directory's own guard all
// reach that one verdict. Each row posts a CRL naming a delegation to
// an open directory's admin endpoint and has a CRLFollower read it off
// the directory's stream into a verifier's store; the signer is the issuing key k or a
// stranger, and the delegation's issuer is k's key, k's hash or a
// name under k — every form a certificate signed by k may carry.
func TestOneRevocationRule(t *testing.T) {
	now := time.Now()
	v := core.Between(now.Add(-time.Minute), now.Add(time.Hour))
	k := sfkey.FromSeed([]byte("rule-issuer"))
	stranger := sfkey.FromSeed([]byte("rule-stranger"))
	bobP := principal.KeyOf(sfkey.FromSeed([]byte("rule-bob")).Public())
	issuers := []struct {
		name string
		prin principal.Principal
	}{
		{"KeyOf(k)", principal.KeyOf(k.Public())},
		{"HashOfKey(k)", principal.HashOfKey(k.Public())},
		{"name under k", principal.NameOf(principal.KeyOf(k.Public()), "staff")},
	}
	signers := []struct {
		name string
		priv *sfkey.PrivateKey
	}{{"k", k}, {"stranger", stranger}}

	// voided reports whether c fails verification against a context
	// bound to rs — the hook admit.Pipeline, CtlGuard and rmi.Server
	// all install.
	voided := func(rs *cert.RevocationStore, c *cert.Cert) bool {
		ctx := core.NewVerifyContext()
		ctx.Now = now
		rs.Bind(ctx)
		return c.Verify(ctx) != nil
	}
	for _, iss := range issuers {
		for _, sg := range signers {
			t.Run(iss.name+"/signed by "+sg.name, func(t *testing.T) {
				c, err := cert.Delegate(k, bobP, iss.prin, tag.All(), v)
				if err != nil {
					t.Fatal(err)
				}
				st, dirRevs, cl := startRevocableDirectory(t)
				if _, err := st.Publish(c, now); err != nil {
					t.Fatal(err)
				}
				if err := cl.PushCRL(cert.NewRevocationList(sg.priv, v, c.Hash())); err != nil {
					t.Fatal(err)
				}
				verifierRevs := cert.NewRevocationStore()
				if _, installed, err := pollOnce(NewCRLFollower(cl, verifierRevs), 0); err != nil || installed != 1 {
					t.Fatalf("follower poll: installed %d, err %v", installed, err)
				}

				want := sg.priv == k
				if got := !st.HasHash(c.Hash()); got != want {
					t.Errorf("directory eviction: evicted=%v, want %v", got, want)
				}
				if got := voided(verifierRevs, c); got != want {
					t.Errorf("following verifier: voided=%v, want %v", got, want)
				}
				if got := voided(dirRevs, c); got != want {
					t.Errorf("directory guard: voided=%v, want %v", got, want)
				}
			})
		}
	}
}
