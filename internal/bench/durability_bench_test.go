package bench

import (
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/certdir"
)

// Durability and replication baselines for the certificate directory:
// what the write-ahead log costs per publish under each fsync policy,
// how fast a restart replays the log, and what one anti-entropy round
// costs both when converged (Merkle root exchange only) and when
// catching up. Run with
//
//	go test ./internal/bench -bench='WAL|Gossip' -benchmem

// durableStore opens a WAL-backed store in a fresh temp dir.
func durableStore(b *testing.B, policy certdir.SyncPolicy, now time.Time) *certdir.Store {
	b.Helper()
	st, _, err := certdir.OpenDurable(b.TempDir(), 0, policy, now)
	if err != nil {
		b.Fatal(err)
	}
	return st
}

// benchWALPublish measures Publish with journaling under one fsync
// policy; compare against BenchmarkCertdirPublish (memory-only) for
// the WAL's overhead.
func benchWALPublish(b *testing.B, policy certdir.SyncPolicy) {
	c := corpus(b, 10_000)
	st := durableStore(b, policy, c.now)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%len(c.certs) == 0 {
			b.StopTimer()
			if err := st.CloseWAL(); err != nil {
				b.Fatal(err)
			}
			st = durableStore(b, policy, c.now)
			b.StartTimer()
		}
		if _, err := st.Publish(c.certs[i%len(c.certs)], c.now); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := st.CloseWAL(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkCertdirWALPublishSyncAlways(b *testing.B) { benchWALPublish(b, certdir.SyncAlways) }
func BenchmarkCertdirWALPublishSyncNever(b *testing.B)  { benchWALPublish(b, certdir.SyncNever) }

// BenchmarkCertdirWALReplay10k is the restart cost: replaying a
// 10k-publish log into a fresh store, signature re-verification
// included (replay trusts the disk no more than publish trusts the
// network).
func BenchmarkCertdirWALReplay10k(b *testing.B) {
	c := corpus(b, 10_000)
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

// BenchmarkCertdirGossipRoot is the per-round cost a converged peer
// imposes on the directory serving it: folding the leaf summaries of
// 10k stored certificates into the root the two sides compare.
func BenchmarkCertdirGossipRoot(b *testing.B) {
	c := corpus(b, 10_000)
	st := populate(b, c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if root := st.MerkleRoot(); root.Count != len(c.certs) {
			b.Fatalf("root counts %d certificates, want %d", root.Count, len(c.certs))
		}
	}
}

// BenchmarkCertdirGossipRoundConverged is a full anti-entropy round
// between two identical directories over loopback HTTP: the
// steady-state overhead of replication (one root exchange, no pulls).
func BenchmarkCertdirGossipRoundConverged(b *testing.B) {
	c := corpus(b, 10_000)
	peer := populate(b, c)
	ts := httptest.NewServer(certdir.NewService(peer))
	defer ts.Close()
	local := populate(b, c)
	rep := certdir.NewReplicator(local, []*certdir.Client{certdir.NewClient(ts.URL)})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pulled, err := rep.Converge()
		if err != nil {
			b.Fatal(err)
		}
		if pulled != 0 {
			b.Fatalf("converged peers pulled %d", pulled)
		}
	}
}

// BenchmarkCertdirGossipCatchUp1k is the repair path: an empty
// directory pulling 1000 certificates from a peer in one round
// (digests, hash-list diff, batched fetch, re-verification, indexing).
func BenchmarkCertdirGossipCatchUp1k(b *testing.B) {
	c := corpus(b, 1_000)
	peer := populate(b, c)
	ts := httptest.NewServer(certdir.NewService(peer))
	defer ts.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		local := certdir.NewStore(0)
		rep := certdir.NewReplicator(local, []*certdir.Client{certdir.NewClient(ts.URL)})
		pulled, err := rep.Converge()
		if err != nil {
			b.Fatal(err)
		}
		if pulled != len(c.certs) {
			b.Fatalf("pulled %d, want %d", pulled, len(c.certs))
		}
	}
}

// BenchmarkCertdirWALCompact10k rewrites a 10k-certificate log: the
// cost Sweep and EvictRevoked pay whenever they drop entries.
func BenchmarkCertdirWALCompact10k(b *testing.B) {
	c := corpus(b, 10_000)
	st := durableStore(b, certdir.SyncNever, c.now)
	for _, ct := range c.certs {
		if _, err := st.Publish(ct, c.now); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.CompactWAL(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := st.CloseWAL(); err != nil {
		b.Fatal(err)
	}
	if ws, ok := st.WALStats(); !ok || ws.Compactions < int64(b.N) {
		b.Fatalf("compactions %v", ws)
	}
}
