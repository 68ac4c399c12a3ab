package loadgen

import (
	"testing"
	"time"
)

// TestGraphDeterminism pins the property benchmark comparisons rest
// on: the generated world is a pure function of (seed, now). Keys
// come from seeded derivation, ed25519 signing is deterministic, and
// the zipf streams are driven by a seeded source, so two builds with
// the same inputs must be byte-identical — certificates AND request
// schedule — while a different seed must diverge.
func TestGraphDeterminism(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	cfg := Config{
		Gateways: 2, Directories: 2,
		Principals: 24, Orgs: 4, Seed: 1, ZipfS: 1.3, WarmOps: 300,
		Now: now,
	}

	g1, err := BuildGraph(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := BuildGraph(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if f1, f2 := g1.Fingerprint(), g2.Fingerprint(); f1 != f2 {
		t.Fatalf("same seed diverged:\n  %s\n  %s", f1, f2)
	}

	// Byte identity, not just hash identity, for the parts the
	// fingerprint summarizes.
	if len(g1.Certs) != len(g2.Certs) {
		t.Fatalf("cert counts differ: %d vs %d", len(g1.Certs), len(g2.Certs))
	}
	for i := range g1.Certs {
		if string(g1.Certs[i].Sexp().Canonical()) != string(g2.Certs[i].Sexp().Canonical()) {
			t.Fatalf("cert %d bytes differ between identical builds", i)
		}
	}
	if len(g1.Schedule) != len(g2.Schedule) {
		t.Fatalf("schedule lengths differ: %d vs %d", len(g1.Schedule), len(g2.Schedule))
	}
	for i := range g1.Schedule {
		if g1.Schedule[i] != g2.Schedule[i] {
			t.Fatalf("schedule[%d] differs: %d vs %d", i, g1.Schedule[i], g2.Schedule[i])
		}
	}

	cfg.Seed = 2
	g3, err := BuildGraph(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g1.Fingerprint() == g3.Fingerprint() {
		t.Fatal("different seeds produced identical graphs")
	}

	// A different clock shifts validity windows and therefore bytes:
	// runs are only comparable when Now is pinned.
	cfg.Seed = 1
	cfg.Now = now.Add(time.Hour)
	g4, err := BuildGraph(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g1.Fingerprint() == g4.Fingerprint() {
		t.Fatal("different clocks produced identical graphs")
	}
}
