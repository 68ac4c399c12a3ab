package cert

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sfkey"
)

// TestRevocationStoreSweep: lapsed CRLs are dropped from the store
// and the hash index, but the dedup set keeps them from being
// reinstalled (a peer re-gossiping a lapsed list must not bump the
// epoch every round).
func TestRevocationStoreSweep(t *testing.T) {
	priv, _ := sfkey.Generate()
	now := time.Now()
	lapsed := NewRevocationList(priv, core.Between(now.Add(-2*time.Hour), now.Add(-time.Hour)), []byte("old-cert"))
	fresh := NewRevocationList(priv, core.Between(now.Add(-time.Hour), now.Add(time.Hour)), []byte("live-cert"))
	unbounded := NewRevocationList(priv, core.Forever, []byte("forever-cert"))

	rs := NewRevocationStore()
	for _, rl := range []*RevocationList{lapsed, fresh, unbounded} {
		if _, errs := rs.Add(rl); errs[0] != nil {
			t.Fatal(errs[0])
		}
	}
	if n := len(rs.Lists()); n != 3 {
		t.Fatalf("installed %d lists, want 3", n)
	}

	if dropped := rs.Sweep(now); dropped != 1 {
		t.Fatalf("swept %d lists, want 1", dropped)
	}
	if n := len(rs.Lists()); n != 2 {
		t.Fatalf("%d lists after sweep, want 2", n)
	}
	// The index survives for live lists…
	signer := priv.Public()
	if !rs.RevokedAt(now)([]byte("live-cert"), signer) || !rs.RevokedAt(now)([]byte("forever-cert"), signer) {
		t.Fatal("sweep dropped live revocations from the index")
	}
	// …and the lapsed hash is gone from it.
	if rs.RevokedAt(now.Add(-90*time.Minute))([]byte("old-cert"), signer) {
		t.Fatal("lapsed CRL still answers through the index after sweep")
	}

	// Reinstalling the lapsed list is a dedup'd no-op: no epoch bump.
	epoch := core.SharedProofCache().Epoch()
	added, errs := rs.Add(lapsed)
	if errs[0] != nil || added[0] {
		t.Fatalf("lapsed CRL reinstalled after sweep: added=%v err=%v", added[0], errs[0])
	}
	if core.SharedProofCache().Epoch() != epoch {
		t.Fatal("re-gossiped lapsed CRL bumped the epoch")
	}

	// Second sweep: nothing left to drop.
	if dropped := rs.Sweep(now); dropped != 0 {
		t.Fatalf("second sweep dropped %d", dropped)
	}
}

// TestRevokedAtIndex: the hash-set index answers exactly like a
// linear scan, including freshness windows and the signer match.
func TestRevokedAtIndex(t *testing.T) {
	priv, _ := sfkey.Generate()
	signer := priv.Public()
	now := time.Now()
	h1, h2 := []byte("cert-1"), []byte("cert-2")
	windowed := NewRevocationList(priv, core.Between(now, now.Add(time.Hour)), h1)
	rs := NewRevocationStore()
	if _, errs := rs.Add(windowed); errs[0] != nil {
		t.Fatal(errs[0])
	}
	if !rs.RevokedAt(now.Add(time.Minute))(h1, signer) {
		t.Fatal("listed hash not revoked inside the window")
	}
	if rs.RevokedAt(now.Add(2*time.Hour))(h1, signer) {
		t.Fatal("revoked after the CRL lapsed")
	}
	if rs.RevokedAt(now.Add(-time.Minute))(h1, signer) {
		t.Fatal("revoked before the CRL is fresh")
	}
	if rs.RevokedAt(now.Add(time.Minute))(h2, signer) {
		t.Fatal("unlisted hash revoked")
	}

	// Two lists naming the same hash: either window suffices.
	later := NewRevocationList(priv, core.Between(now.Add(2*time.Hour), now.Add(3*time.Hour)), h1)
	if _, errs := rs.Add(later); errs[0] != nil {
		t.Fatal(errs[0])
	}
	if !rs.RevokedAt(now.Add(150*time.Minute))(h1, signer) {
		t.Fatal("second list's window not honored")
	}

	// A second signer's list rides the same index and voids only its own.
	other, _ := sfkey.Generate()
	otherList := NewRevocationList(other, core.Forever, h2)
	if _, errs := rs.Add(otherList); errs[0] != nil {
		t.Fatal(errs[0])
	}
	pred := rs.RevokedAt(now.Add(time.Minute))
	if !pred(h1, signer) {
		t.Fatal("signer-matched revocation missed")
	}
	if pred(h1, other.Public()) {
		t.Fatal("wrong signer matched")
	}
	if !pred(h2, other.Public()) {
		t.Fatal("second signer's revocation missed")
	}
	if pred(h2, signer) {
		t.Fatal("a list voided a certificate its signer did not sign")
	}
}
