package bench

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sexp"

	"repro/internal/certdir"
)

// Wire-layer baselines: what one certificate costs to move through
// the S-expression layer (parse, canonical re-encode, full proof
// round-trip) and what bulk verification costs when every signature
// is cold. Run with
//
//	go test ./internal/bench -bench='Wire|BulkVerify' -benchmem
//
// The typed zero-alloc sexp layer is measured by allocs/op here, the
// batched verifier by the cold-replay throughput.

// wireProof returns the canonical wire form of the realistic 3-cert
// proof chain Table 1 uses.
func wireProof(b *testing.B) []byte {
	b.Helper()
	p, err := realisticProof()
	if err != nil {
		b.Fatal(err)
	}
	return p.Sexp().Canonical()
}

// BenchmarkWireParse measures parsing one proof wire form into a sexp
// tree (no decoding into typed objects).
func BenchmarkWireParse(b *testing.B) {
	wire := wireProof(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sexp.ParseOne(wire); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireEncode measures canonical-encoding a parsed proof tree.
func BenchmarkWireEncode(b *testing.B) {
	wire := wireProof(b)
	e, err := sexp.ParseOne(wire)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := e.Canonical(); len(out) != len(wire) {
			b.Fatalf("encoded %d bytes, want %d", len(out), len(wire))
		}
	}
}

// BenchmarkWireCertRoundTrip is the cert canonical round-trip: parse
// the proof wire form, decode it into typed proof objects, and render
// it back to canonical bytes — the full path a certificate takes
// through a directory endpoint or a WAL record.
func BenchmarkWireCertRoundTrip(b *testing.B) {
	wire := wireProof(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := sexp.ParseOne(wire)
		if err != nil {
			b.Fatal(err)
		}
		p, err := core.ProofFromSexp(e)
		if err != nil {
			b.Fatal(err)
		}
		if out := p.Sexp().Canonical(); len(out) != len(wire) {
			b.Fatalf("re-encoded %d bytes, want %d", len(out), len(wire))
		}
	}
}

// BenchmarkBulkVerifyColdReplay1k is bulk verification with every
// signature cold: replaying a 1000-publish WAL into a fresh store
// with the shared proof cache emptied first, so each certificate
// costs a real Ed25519 verification. Reported as ns/op over the whole
// replay; certs/sec is 1000/(ns/op/1e9).
func BenchmarkBulkVerifyColdReplay1k(b *testing.B) {
	c := corpus(b, 1_000)
	dir := b.TempDir()
	st, _, err := certdir.OpenDurable(dir, 0, certdir.SyncNever, c.now)
	if err != nil {
		b.Fatal(err)
	}
	for _, ct := range c.certs {
		if _, err := st.Publish(ct, c.now); err != nil {
			b.Fatal(err)
		}
	}
	if err := st.CloseWAL(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		core.SharedProofCache().Reset()
		b.StartTimer()
		re, rec, err := certdir.OpenDurable(dir, 0, certdir.SyncNever, c.now)
		if err != nil {
			b.Fatal(err)
		}
		if rec.Replayed != len(c.certs) {
			b.Fatalf("replayed %d, want %d", rec.Replayed, len(c.certs))
		}
		b.StopTimer()
		if err := re.CloseWAL(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
