package server

import (
	"context"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/principal"
	"repro/internal/prover"
	"repro/internal/sfkey"
	"repro/internal/tag"
)

func scrape(t *testing.T, m *Metrics) string {
	t.Helper()
	rec := httptest.NewRecorder()
	m.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body, _ := io.ReadAll(rec.Result().Body)
	return string(body)
}

func TestMetricsFormat(t *testing.T) {
	m := NewMetrics()
	m.Register(func(emit func(Metric)) {
		emit(Gauge("sf_b_gauge", "B.", 2.5))
		emit(Counter("sf_a_total", "A.", 41))
	})
	out := scrape(t, m)
	// Sorted by name, HELP then TYPE then sample.
	wantOrder := []string{
		"# HELP sf_a_total A.",
		"# TYPE sf_a_total counter",
		"sf_a_total 41",
		"# HELP sf_b_gauge B.",
		"# TYPE sf_b_gauge gauge",
		"sf_b_gauge 2.5",
	}
	idx := -1
	for _, line := range wantOrder {
		at := strings.Index(out, line)
		if at < 0 {
			t.Fatalf("missing line %q in:\n%s", line, out)
		}
		if at < idx {
			t.Fatalf("line %q out of order in:\n%s", line, out)
		}
		idx = at
	}
}

func TestMetricsLiveValues(t *testing.T) {
	m := NewMetrics()
	v := 1.0
	m.Register(func(emit func(Metric)) {
		emit(Gauge("sf_live", "", v))
	})
	if !strings.Contains(scrape(t, m), "sf_live 1") {
		t.Fatal("first scrape wrong")
	}
	v = 2
	if !strings.Contains(scrape(t, m), "sf_live 2") {
		t.Fatal("collectors must read live values, not snapshots")
	}
}

func TestProofCacheCollector(t *testing.T) {
	pc := core.NewProofCache(16)
	pc.Lookup([32]byte{1}, timeNow(), core.ViewAny) // one miss
	pc.BumpEpoch()
	m := NewMetrics()
	m.Register(ProofCacheCollector(pc))
	out := scrape(t, m)
	for _, want := range []string{
		"sf_proofcache_misses_total 1",
		"sf_proofcache_epoch 1",
		"sf_proofcache_entries 0",
		"# TYPE sf_proofcache_hits_total counter",
		"# TYPE sf_proofcache_epoch gauge",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestProverCollector(t *testing.T) {
	pv := prover.New()
	m := NewMetrics()
	m.Register(ProverCollector(pv))
	out := scrape(t, m)
	for _, want := range []string{"sf_prover_edges 0", "sf_prover_traversals_total 0"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

// emptySource is a directory that holds nothing.
type emptySource struct{}

func (emptySource) ByIssuerForCtx(context.Context, principal.Principal, tag.Tag, int) ([]core.Proof, error) {
	return nil, nil
}

func (emptySource) BySubjectForCtx(context.Context, principal.Principal, tag.Tag, int) ([]core.Proof, error) {
	return nil, nil
}

// TestProverCollectorFallbacks drives one discovery whose subject-side
// walk dead-ends at once: the export shows one fallback beside the two
// questions asked (the subject, then the issuer).
func TestProverCollectorFallbacks(t *testing.T) {
	pv := prover.New()
	pv.AddRemote(emptySource{})
	key := func(seed string) principal.Principal {
		return principal.KeyOf(sfkey.FromSeed([]byte(seed)).Public())
	}
	if _, err := pv.FindProof(key("fallback-stranger"), key("fallback-owner"), tag.All(), time.Now()); err == nil {
		t.Fatal("proved a goal nobody delegated")
	}
	m := NewMetrics()
	m.Register(ProverCollector(pv))
	out := scrape(t, m)
	for _, want := range []string{"sf_prover_remote_fallbacks_total 1", "sf_prover_remote_queries_total 2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

// timeNow keeps the proof-cache test honest about its clock without
// importing time twice at call sites.
func timeNow() (t time.Time) { return time.Now() }
