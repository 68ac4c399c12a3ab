package prover

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/principal"
	"repro/internal/sfkey"
	"repro/internal/tag"
)

// TestNegativeCacheEvictsOldestWhenFull: a full cache of still-fresh
// entries must make room for the new key (evicting the oldest) rather
// than silently dropping it — the dropped key was the HOT one being
// recorded right now, and losing it meant a directory round trip on
// every FindProof for that missing issuer.
func TestNegativeCacheEvictsOldestWhenFull(t *testing.T) {
	p := New()
	p.NegativeTTL = time.Hour // nothing expires during the test
	base := time.Now()
	// Fill to the bound with fresh entries; key-0 is the oldest.
	for i := 0; i < negCacheMax; i++ {
		p.cacheNegative(string(rune('a'))+"|"+string(rune(i)), base.Add(time.Duration(i)*time.Millisecond))
	}
	if len(p.negCache) != negCacheMax {
		t.Fatalf("cache holds %d entries, want full at %d", len(p.negCache), negCacheMax)
	}
	hot := "hot|issuer"
	p.cacheNegative(hot, base) // nothing has expired: eviction, not pruning, must make room
	if _, ok := p.negCache[hot]; !ok {
		t.Fatal("fresh hot key was not inserted into a full negative cache")
	}
	if len(p.negCache) > negCacheMax {
		t.Fatalf("cache grew past its bound: %d", len(p.negCache))
	}
	if _, ok := p.negCache["a|"+string(rune(0))]; ok {
		t.Fatal("oldest entry survived the overflow eviction")
	}
	if got := p.Stats().NegCacheEvicted; got != 1 {
		t.Fatalf("NegCacheEvicted = %d, want 1", got)
	}
}

// TestInvalidateDropsDependentEdges: invalidating a certificate body
// hash must drop the certificate's edge AND every composed shortcut
// containing it, evict exactly those verdicts from the proof cache,
// and leave independent edges (and their verdicts) untouched.
func TestInvalidateDropsDependentEdges(t *testing.T) {
	now := time.Now()
	v := core.Between(now.Add(-time.Minute), now.Add(time.Hour))
	want := tag.Prefix("files")
	prins, certs := remoteChain(t, "inv", 2, want, v)

	p := New()
	for _, c := range certs {
		p.AddProof(c)
	}
	// Find a 2-hop proof so a composed shortcut edge is recorded.
	proof, err := p.FindProof(prins[2], prins[0], want, now)
	if err != nil {
		t.Fatal(err)
	}
	if p.EdgeCount() != 3 { // 2 cert edges + 1 shortcut
		t.Fatalf("EdgeCount = %d, want 3", p.EdgeCount())
	}

	cache := core.NewProofCache(64)
	cache.Store(certs[0].Sexp().Hash(), v, cache.Epoch(), 0)
	cache.Store(certs[1].Sexp().Hash(), v, cache.Epoch(), 0)
	cache.Store(proof.Sexp().Hash(), v, cache.Epoch(), 0)
	unrelated := [32]byte{42}
	cache.Store(unrelated, v, cache.Epoch(), 0)

	// Revoke the first hop: its edge and the shortcut composed from it
	// must go; the second hop's edge survives.
	dropped := p.Invalidate([][]byte{certs[0].Hash()}, cache)
	if dropped != 2 {
		t.Fatalf("Invalidate dropped %d edges, want cert + shortcut = 2", dropped)
	}
	if p.EdgeCount() != 1 {
		t.Fatalf("EdgeCount after invalidate = %d, want 1", p.EdgeCount())
	}
	if cache.Lookup(certs[0].Sexp().Hash(), now, core.ViewAny) {
		t.Fatal("revoked certificate's verdict survived")
	}
	if !cache.Lookup(certs[1].Sexp().Hash(), now, core.ViewAny) {
		t.Fatal("independent certificate's verdict was evicted")
	}
	if !cache.Lookup(unrelated, now, core.ViewAny) {
		t.Fatal("unrelated verdict was evicted")
	}
	if got := p.Stats().Invalidated; got != 2 {
		t.Fatalf("Invalidated stat = %d, want 2", got)
	}

	// The proof can no longer be found: the chain is broken.
	if _, err := p.FindProof(prins[2], prins[0], want, now); err == nil {
		t.Fatal("proof still found after its first hop was invalidated")
	}
	// A re-delegation of the same authority re-enters cleanly (the
	// seen-set entries were released with the edges).
	p.AddProof(certs[0])
	if _, err := p.FindProof(prins[2], prins[0], want, now); err != nil {
		t.Fatalf("re-added edge unusable: %v", err)
	}
}

// TestInvalidateAllocsFlatInEdges: invalidating a hash no edge rests
// on costs the same allocations however large the graph is — leaf
// body hashes are recorded when an edge is built, not re-derived (for
// a locally signed certificate, re-encoded) per edge per event.
func TestInvalidateAllocsFlatInEdges(t *testing.T) {
	root := sfkey.FromSeed([]byte("inv-allocs"))
	kRoot := principal.KeyOf(root.Public())
	allocs := func(n int) float64 {
		p := New()
		for i := 0; i < n; i++ {
			// Distinct issuers rooted at one key: n edges in n edge sets.
			iss := principal.NameOf(kRoot, fmt.Sprintf("i%d", i))
			c, err := cert.Delegate(root, principal.NameOf(kRoot, fmt.Sprintf("s%d", i)), iss, tag.All(), core.Forever)
			if err != nil {
				t.Fatal(err)
			}
			p.AddProof(c)
		}
		if p.EdgeCount() != n {
			t.Fatalf("EdgeCount = %d, want %d", p.EdgeCount(), n)
		}
		unrelated := [][]byte{make([]byte, 32)}
		return testing.AllocsPerRun(20, func() {
			if p.Invalidate(unrelated, nil) != 0 {
				t.Fatal("unrelated hash dropped an edge")
			}
		})
	}
	small, large := allocs(8), allocs(256)
	if large != small {
		t.Fatalf("Invalidate allocates %v with 8 edges but %v with 256: not flat in N", small, large)
	}
}
