package bench

import (
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/cert"
	"repro/internal/certdir"
	"repro/internal/core"
	"repro/internal/principal"
	"repro/internal/prover"
	"repro/internal/sfkey"
	"repro/internal/tag"
)

// Certificate-directory baselines: publish throughput, query latency
// at 10k and 100k stored certificates, and the prover's end-to-end
// remote chain discovery. Run with
//
//	go test ./internal/bench -bench=Certdir -benchmem
//
// so future directory changes (replication, persistent backends) have
// a number to beat.

// dirCorpus is a reusable population: nIssuers keys each delegating
// to subjects drawn from a small pool, every certificate unique via a
// distinct literal tag.
type dirCorpus struct {
	issuers []principal.Principal
	certs   []*cert.Cert
	now     time.Time
}

var dirCorpora = map[int]*dirCorpus{}

// corpus returns (building once per size) n signed certificates
// spread over n/100 issuers.
func corpus(b *testing.B, n int) *dirCorpus {
	if c, ok := dirCorpora[n]; ok {
		return c
	}
	now := time.Now()
	nIssuers := n / 100
	if nIssuers == 0 {
		nIssuers = 1
	}
	c := &dirCorpus{now: now}
	issuerKeys := make([]*sfkey.PrivateKey, nIssuers)
	for i := range issuerKeys {
		issuerKeys[i] = sfkey.FromSeed([]byte(fmt.Sprintf("bench-dir-issuer-%d", i)))
		c.issuers = append(c.issuers, principal.KeyOf(issuerKeys[i].Public()))
	}
	subjects := make([]principal.Principal, 64)
	for i := range subjects {
		subjects[i] = principal.KeyOf(sfkey.FromSeed([]byte(fmt.Sprintf("bench-dir-subject-%d", i))).Public())
	}
	v := core.Until(now.Add(24 * time.Hour))
	for i := 0; i < n; i++ {
		priv := issuerKeys[i%nIssuers]
		ct, err := cert.Delegate(priv, subjects[i%len(subjects)],
			principal.KeyOf(priv.Public()), tag.Literal(fmt.Sprintf("r%d", i)), v)
		if err != nil {
			b.Fatal(err)
		}
		c.certs = append(c.certs, ct)
	}
	dirCorpora[n] = c
	return c
}

// populate fills a fresh store from the corpus.
func populate(b *testing.B, c *dirCorpus) *certdir.Store {
	st := certdir.NewStore(0)
	for _, ct := range c.certs {
		if _, err := st.Publish(ct, c.now); err != nil {
			b.Fatal(err)
		}
	}
	return st
}

func BenchmarkCertdirPublish(b *testing.B) {
	c := corpus(b, 10_000)
	st := certdir.NewStore(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%len(c.certs) == 0 {
			b.StopTimer()
			st = certdir.NewStore(0)
			b.StartTimer()
		}
		if _, err := st.Publish(c.certs[i%len(c.certs)], c.now); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCertdirPublishParallel measures contention across shards.
func BenchmarkCertdirPublishParallel(b *testing.B) {
	c := corpus(b, 10_000)
	st := certdir.NewStore(0)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			// Republishing is the dedup path after the first lap; both
			// paths hit the same shard lock, which is the object here.
			if _, err := st.Publish(c.certs[i%len(c.certs)], c.now); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

func benchQueryByIssuer(b *testing.B, size int) {
	c := corpus(b, size)
	st := populate(b, c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got := st.ByIssuer(c.issuers[i%len(c.issuers)], c.now)
		if len(got) == 0 {
			b.Fatal("empty answer")
		}
	}
}

func BenchmarkCertdirQueryByIssuer10k(b *testing.B)  { benchQueryByIssuer(b, 10_000) }
func BenchmarkCertdirQueryByIssuer100k(b *testing.B) { benchQueryByIssuer(b, 100_000) }

// BenchmarkCertdirQueryByIssuerTag is the prover's question to a
// directory: one issuer holding 1 000 structured grants (db (owner
// u<i>)), asked for the grants covering one of them, capped at the
// prover's fetch limit. The issuer's tag-path index answers it from
// the one grant on the query's path instead of testing all 1 000.
func BenchmarkCertdirQueryByIssuerTag(b *testing.B) {
	const grants = 1000
	now := time.Now()
	v := core.Until(now.Add(24 * time.Hour))
	issuer := sfkey.FromSeed([]byte("bench-dir-tag-issuer"))
	issuerP := principal.KeyOf(issuer.Public())
	st := certdir.NewStore(0)
	wants := make([]tag.Tag, grants)
	for i := range wants {
		wants[i] = tag.ListOf(tag.Literal("db"), tag.ListOf(tag.Literal("owner"), tag.Literal(fmt.Sprintf("u%d", i))))
		subj := principal.KeyOf(sfkey.FromSeed([]byte(fmt.Sprintf("bench-dir-tag-subject-%d", i))).Public())
		ct, err := cert.Delegate(issuer, subj, issuerP, wants[i], v)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := st.Publish(ct, now); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got := st.ByIssuerFiltered(issuerP, now, certdir.QueryFilter{Tag: wants[i%grants], Limit: prover.DefaultRemoteLimit})
		if len(got) != 1 {
			b.Fatalf("answer has %d certificates, want 1", len(got))
		}
	}
}

func benchQueryBySubject(b *testing.B, size int) {
	c := corpus(b, size)
	st := populate(b, c)
	subj := c.certs[0].Body.Subject
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got := st.BySubject(subj, c.now)
		if len(got) == 0 {
			b.Fatal("empty answer")
		}
	}
}

func BenchmarkCertdirQueryBySubject10k(b *testing.B)  { benchQueryBySubject(b, 10_000) }
func BenchmarkCertdirQueryBySubject100k(b *testing.B) { benchQueryBySubject(b, 100_000) }

// BenchmarkCertdirHTTPQuery adds the wire: S-expression encode, HTTP
// round trip over loopback, parse, and signature re-verification on
// the client side is excluded (queries return parsed certs).
func BenchmarkCertdirHTTPQuery(b *testing.B) {
	c := corpus(b, 10_000)
	st := populate(b, c)
	ts := httptest.NewServer(certdir.NewService(st))
	defer ts.Close()
	cl := certdir.NewClient(ts.URL)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := cl.ByIssuer(c.issuers[i%len(c.issuers)])
		if err != nil {
			b.Fatal(err)
		}
		if len(got) == 0 {
			b.Fatal("empty answer")
		}
	}
}

// BenchmarkProverRemoteDiscovery is the end-to-end cost a cold prover
// pays to assemble a 3-hop chain it holds nothing of: directory
// queries, fetch, verification, digestion, and the final search.
func BenchmarkProverRemoteDiscovery(b *testing.B) {
	now := time.Now()
	v := core.Until(now.Add(24 * time.Hour))
	want := tag.Prefix("bench/files")
	keys := make([]*sfkey.PrivateKey, 4)
	prins := make([]principal.Principal, 4)
	for i := range keys {
		keys[i] = sfkey.FromSeed([]byte(fmt.Sprintf("bench-rd-%d", i)))
		prins[i] = principal.KeyOf(keys[i].Public())
	}
	st := certdir.NewStore(0)
	for i := 0; i < 3; i++ {
		ct, err := cert.Delegate(keys[i], prins[i+1], prins[i], want, v)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := st.Publish(ct, now); err != nil {
			b.Fatal(err)
		}
	}
	ts := httptest.NewServer(certdir.NewService(st))
	defer ts.Close()
	cl := certdir.NewClient(ts.URL) // one client: a prover's directory connection pool outlives any one search
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := prover.New()
		p.AddRemote(cl)
		if _, err := p.FindProof(prins[3], prins[0], want, now); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProverLocalAfterDiscovery is the companion number: the
// same goal once the chain has been digested, i.e. the hot path that
// remote discovery must not slow down.
func BenchmarkProverLocalAfterDiscovery(b *testing.B) {
	now := time.Now()
	v := core.Until(now.Add(24 * time.Hour))
	want := tag.Prefix("bench/files")
	keys := make([]*sfkey.PrivateKey, 4)
	prins := make([]principal.Principal, 4)
	for i := range keys {
		keys[i] = sfkey.FromSeed([]byte(fmt.Sprintf("bench-rd-%d", i)))
		prins[i] = principal.KeyOf(keys[i].Public())
	}
	p := prover.New()
	for i := 0; i < 3; i++ {
		ct, err := cert.Delegate(keys[i], prins[i+1], prins[i], want, v)
		if err != nil {
			b.Fatal(err)
		}
		p.AddProof(ct)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.FindProof(prins[3], prins[0], want, now); err != nil {
			b.Fatal(err)
		}
	}
}
