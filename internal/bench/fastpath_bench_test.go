package bench

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/principal"
	"repro/internal/prover"
	"repro/internal/sfkey"
	"repro/internal/tag"
)

// Fast-path benchmarks for the shared verified-proof cache and the
// sharded prover (the authorization hot path):
//
//	go test -bench=Verify -benchmem ./internal/bench/
//	go test -bench=FindProofParallel ./internal/bench/
//
// VerifyCold re-verifies a 3-hop chain with no cache (every signature
// checked every time); VerifyWarm shares a proof cache across
// verifications, so each iteration is hash-and-lookup. Both report
// sigverifies/op measured by the sfkey counter. FindProofParallel
// runs concurrent provers at 1/4/16 goroutines over a shared graph;
// before the prover was sharded these serialized on one global mutex
// and throughput was flat in the goroutine count. (Scaling only shows
// on multi-core hardware — on a single-CPU runner every variant is
// necessarily flat.)

var benchNow = time.Date(2026, 6, 10, 12, 0, 0, 0, time.UTC)

// benchChain builds subject =>...=> issuer through hops intermediate
// keys and returns the composed proof.
func benchChain(b *testing.B, hops int) core.Proof {
	b.Helper()
	keys := make([]*sfkey.PrivateKey, hops+1)
	for i := range keys {
		keys[i] = sfkey.FromSeed([]byte(fmt.Sprintf("fastpath-%d", i)))
	}
	var proof core.Proof
	for i := 0; i < hops; i++ {
		iss := principal.KeyOf(keys[i].Public())
		sub := principal.KeyOf(keys[i+1].Public())
		c, err := cert.Delegate(keys[i], sub, iss, tag.All(), core.Forever)
		if err != nil {
			b.Fatal(err)
		}
		if proof == nil {
			proof = c
		} else {
			tr, err := core.NewTransitivity(c, proof)
			if err != nil {
				b.Fatal(err)
			}
			proof = tr
		}
	}
	return proof
}

func BenchmarkVerifyCold(b *testing.B) {
	proof := benchChain(b, 3)
	start := sfkey.SigVerifies()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := core.NewVerifyContext()
		ctx.Now = benchNow
		if err := proof.Verify(ctx); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(sfkey.SigVerifies()-start)/float64(b.N), "sigverifies/op")
}

func BenchmarkVerifyWarm(b *testing.B) {
	proof := benchChain(b, 3)
	cache := core.NewProofCache(0)
	// Prime outside the measured region.
	ctx := core.NewVerifyContext()
	ctx.Now = benchNow
	ctx.Cache = cache
	if err := proof.Verify(ctx); err != nil {
		b.Fatal(err)
	}
	start := sfkey.SigVerifies()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := core.NewVerifyContext()
		ctx.Now = benchNow
		ctx.Cache = cache
		if err := proof.Verify(ctx); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(sfkey.SigVerifies()-start)/float64(b.N), "sigverifies/op")
}

// benchProver builds a delegation graph with fan mailbox owners, each
// reachable through a 2-hop chain from one root issuer.
func benchProver(b *testing.B, fan int) (*prover.Prover, principal.Principal, []principal.Principal) {
	b.Helper()
	root := sfkey.FromSeed([]byte("fastpath-root"))
	rootP := principal.KeyOf(root.Public())
	p := prover.New()
	leaves := make([]principal.Principal, fan)
	for i := 0; i < fan; i++ {
		mid := sfkey.FromSeed([]byte(fmt.Sprintf("fastpath-mid-%d", i)))
		leaf := sfkey.FromSeed([]byte(fmt.Sprintf("fastpath-leaf-%d", i)))
		midP, leafP := principal.KeyOf(mid.Public()), principal.KeyOf(leaf.Public())
		c1, err := cert.Delegate(root, midP, rootP, tag.All(), core.Forever)
		if err != nil {
			b.Fatal(err)
		}
		c2, err := cert.Delegate(mid, leafP, midP, tag.All(), core.Forever)
		if err != nil {
			b.Fatal(err)
		}
		p.AddProof(c1)
		p.AddProof(c2)
		leaves[i] = leafP
	}
	return p, rootP, leaves
}

func BenchmarkFindProofParallel(b *testing.B) {
	for _, goroutines := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("goroutines=%d", goroutines), func(b *testing.B) {
			p, root, leaves := benchProver(b, 32)
			want := tag.Literal("req")
			// Warm the shortcut cache so iterations measure the hot
			// path, not first-traversal composition.
			for _, leaf := range leaves {
				if _, err := p.FindProof(leaf, root, want, benchNow); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			var wg sync.WaitGroup
			per := b.N / goroutines
			if per == 0 {
				per = 1
			}
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						leaf := leaves[(g*per+i)%len(leaves)]
						if _, err := p.FindProof(leaf, root, want, benchNow); err != nil {
							b.Error(err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}
}

// benchHotIssuer builds the adversarial shape for the issuer index: a
// single root holding fan single-hop grants, each restricted to its own
// tag — a distinct literal, or the emaildb shape (db (owner u<i>)),
// whose grants all share the head atom db. The edge index visits only
// the grants on the query's tag path, so either shape scans the one
// grant that can cover the query, not the whole fan-in.
func benchHotIssuer(b *testing.B, fan int, grant func(i int) tag.Tag) (*prover.Prover, principal.Principal, []principal.Principal, []tag.Tag) {
	b.Helper()
	root := sfkey.FromSeed([]byte("hotissuer-root"))
	rootP := principal.KeyOf(root.Public())
	p := prover.New()
	leaves := make([]principal.Principal, fan)
	tags := make([]tag.Tag, fan)
	for i := 0; i < fan; i++ {
		leaf := principal.KeyOf(sfkey.FromSeed([]byte(fmt.Sprintf("hotissuer-leaf-%d", i))).Public())
		tg := grant(i)
		c, err := cert.Delegate(root, leaf, rootP, tg, core.Forever)
		if err != nil {
			b.Fatal(err)
		}
		p.AddProof(c)
		leaves[i], tags[i] = leaf, tg
	}
	return p, rootP, leaves, tags
}

// ownerTag is the emaildb grant shape (db (owner u<i>)).
func ownerTag(i int) tag.Tag {
	return tag.ListOf(tag.Literal("db"), tag.ListOf(tag.Literal("owner"), tag.Literal(fmt.Sprintf("u%d", i))))
}

func BenchmarkFindProofHotIssuer(b *testing.B) {
	shapes := []struct {
		name  string
		grant func(i int) tag.Tag
	}{
		{"literal", func(i int) tag.Tag { return tag.Literal(fmt.Sprintf("topic-%d", i)) }},
		{"owner", ownerTag},
	}
	for _, sh := range shapes {
		for _, fan := range []int{64, 1024, 16384} {
			b.Run(fmt.Sprintf("tag=%s/fan=%d", sh.name, fan), func(b *testing.B) {
				p, root, leaves, tags := benchHotIssuer(b, fan, sh.grant)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					idx := i % fan
					if _, err := p.FindProof(leaves[idx], root, tags[idx], benchNow); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
