package server

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/prover"
)

// Metrics is a Prometheus-text-format mirror of the daemons' existing
// counters. The S-expression stats endpoints remain the wire-native
// source of truth; this registry re-exports the same numbers in the
// format standard dashboards scrape, at /metrics on the runtime's
// admin mux. Collectors are closures so the registry holds no copies:
// every scrape reads the live counters.
type Metrics struct {
	mu         sync.Mutex
	collectors []Collector
	hists      []*obs.Histogram
}

// Metric is one sample. Type is "counter" or "gauge" (Prometheus
// semantics: counters only go up — resets excepted — gauges move
// both ways).
type Metric struct {
	Name  string
	Type  string
	Help  string
	Value float64
}

// Counter and Gauge build a Metric of the respective type.
func Counter(name, help string, v float64) Metric {
	return Metric{Name: name, Type: "counter", Help: help, Value: v}
}
func Gauge(name, help string, v float64) Metric {
	return Metric{Name: name, Type: "gauge", Help: help, Value: v}
}

// Collector emits the current value of each metric it covers.
type Collector func(emit func(Metric))

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics { return &Metrics{} }

// Register adds a collector; collectors run on every scrape.
func (m *Metrics) Register(c Collector) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.collectors = append(m.collectors, c)
}

// RegisterHistogram adds a histogram to the exposition. Registering a
// second histogram under an already-registered name is a no-op, so
// wiring helpers can register idempotently.
func (m *Metrics) RegisterHistogram(h *obs.Histogram) {
	if h == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, have := range m.hists {
		if have.Name() == h.Name() {
			return
		}
	}
	m.hists = append(m.hists, h)
}

// Histograms returns the registered histograms.
func (m *Metrics) Histograms() []*obs.Histogram {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]*obs.Histogram(nil), m.hists...)
}

// Gather runs every collector and returns the samples sorted by name
// (scrape order is stable for tests and diffs).
func (m *Metrics) Gather() []Metric {
	m.mu.Lock()
	cs := append([]Collector(nil), m.collectors...)
	m.mu.Unlock()
	var out []Metric
	for _, c := range cs {
		c(func(s Metric) { out = append(out, s) })
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ServeHTTP renders the exposition format: # HELP / # TYPE header per
// metric name, then the samples. Scalars and histograms are merged
// into one name-sorted stream; each histogram renders the Prometheus
// histogram convention — cumulative <name>_bucket{le="..."} series
// ending at le="+Inf", then <name>_sum and <name>_count.
func (m *Metrics) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	type block struct{ name, text string }
	var blocks []block
	var cur *block
	for _, s := range m.Gather() {
		if cur == nil || cur.name != s.Name {
			blocks = append(blocks, block{name: s.Name})
			cur = &blocks[len(blocks)-1]
			if s.Help != "" {
				cur.text += fmt.Sprintf("# HELP %s %s\n", s.Name, s.Help)
			}
			typ := s.Type
			if typ == "" {
				typ = "gauge"
			}
			cur.text += fmt.Sprintf("# TYPE %s %s\n", s.Name, typ)
		}
		cur.text += fmt.Sprintf("%s %g\n", s.Name, s.Value)
	}
	for _, h := range m.Histograms() {
		blocks = append(blocks, block{name: h.Name(), text: renderHistogram(h)})
	}
	sort.SliceStable(blocks, func(i, j int) bool { return blocks[i].name < blocks[j].name })
	for _, b := range blocks {
		fmt.Fprint(w, b.text)
	}
}

// renderHistogram writes one histogram's exposition block.
func renderHistogram(h *obs.Histogram) string {
	var b strings.Builder
	name := h.Name()
	if h.Help() != "" {
		fmt.Fprintf(&b, "# HELP %s %s\n", name, h.Help())
	}
	fmt.Fprintf(&b, "# TYPE %s histogram\n", name)
	cum, sum, count := h.Snapshot()
	for i, ub := range h.Bounds() {
		fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", name, strconv.FormatFloat(ub, 'g', -1, 64), cum[i])
	}
	fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", name, count)
	fmt.Fprintf(&b, "%s_sum %g\n", name, sum)
	fmt.Fprintf(&b, "%s_count %d\n", name, count)
	return b.String()
}

// ProofCacheCollector exports the shared verified-proof cache's
// counters — the fast path every verifying layer (data plane AND,
// since the control-plane refactor, admin/publish/gossip auth) rides.
func ProofCacheCollector(pc *core.ProofCache) Collector {
	return func(emit func(Metric)) {
		emit(Counter("sf_proofcache_hits_total", "Verified-proof cache hits.", float64(pc.Hits())))
		emit(Counter("sf_proofcache_misses_total", "Verified-proof cache misses.", float64(pc.Misses())))
		// The epoch is a level, not an event count (and it could in
		// principle be reset with the process): a gauge, per convention.
		emit(Gauge("sf_proofcache_epoch", "Revocation epoch (bumps on every CRL install).", float64(pc.Epoch())))
		emit(Gauge("sf_proofcache_entries", "Cached verdicts currently held.", float64(pc.Len())))
	}
}

// AuditCollector exports an audit log's cumulative verdict counters.
func AuditCollector(l *obs.AuditLog) Collector {
	return func(emit func(Metric)) {
		emit(Counter("sf_audit_admitted_total", "Authorization decisions admitted.", float64(l.Admitted())))
		emit(Counter("sf_audit_denied_total", "Authorization decisions denied.", float64(l.Denied())))
		emit(Counter("sf_audit_challenged_total", "Authorization challenges issued.", float64(l.Challenged())))
	}
}

// TraceCollector exports the span recorder's ring pressure.
func TraceCollector(rec *obs.Recorder) Collector {
	return func(emit func(Metric)) {
		emit(Counter("sf_trace_spans_dropped_total", "Completed spans evicted from the trace ring.", float64(rec.Dropped())))
	}
}

// ProverCollector exports a long-lived prover's work counters
// (gateway, proxy).
func ProverCollector(pv *prover.Prover) Collector {
	return func(emit func(Metric)) {
		st := pv.Stats()
		emit(Gauge("sf_prover_edges", "Delegation-graph edges currently held.", float64(pv.EdgeCount())))
		emit(Counter("sf_prover_traversals_total", "FindProof traversals (including recursive).", float64(st.Traversals)))
		emit(Counter("sf_prover_minted_total", "Delegations minted through closures.", float64(st.Minted)))
		emit(Counter("sf_prover_swept_total", "Expired edges evicted by Sweep.", float64(st.Swept)))
		emit(Counter("sf_prover_swept_verdicts_total", "Cached verdicts evicted alongside swept edges.", float64(st.SweptVerdicts)))
		emit(Counter("sf_prover_shortcut_hits_total", "Goals reached through cached shortcut edges.", float64(st.ShortcutHits)))
		emit(Counter("sf_prover_remote_queries_total", "Directory lookups issued.", float64(st.RemoteQueries)))
		emit(Counter("sf_prover_remote_certs_total", "Fresh proofs digested from directories.", float64(st.RemoteCerts)))
		emit(Counter("sf_prover_remote_rejected_total", "Remote proofs dropped as unverifiable.", float64(st.RemoteRejected)))
		emit(Counter("sf_prover_negcache_hits_total", "Directory lookups skipped by the negative cache.", float64(st.NegCacheHits)))
		emit(Counter("sf_prover_remote_fallbacks_total", "Discoveries whose subject-side walk dead-ended into the issuer-side fan-out.", float64(st.RemoteFallbacks)))
		emit(Counter("sf_prover_negcache_evicted_total", "Negative-cache entries displaced by overflow.", float64(st.NegCacheEvicted)))
		emit(Counter("sf_prover_invalidated_total", "Edges dropped by directory invalidation events.", float64(st.Invalidated)))
	}
}
