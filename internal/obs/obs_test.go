package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanTreeAndContext(t *testing.T) {
	rec := NewRecorder(16)
	ctx, root := rec.Start(context.Background(), "gateway.admit")
	if root.TraceID() == "" {
		t.Fatal("root span has no trace ID")
	}
	ctx2, child := StartSpan(ctx, "prover.remote")
	if child.TraceID() != root.TraceID() {
		t.Fatalf("child trace %q != root trace %q", child.TraceID(), root.TraceID())
	}
	_, grand := StartSpan(ctx2, "certdir.query")
	grand.SetAttr("issuer", "k1")
	grand.Fail(fmt.Errorf("boom"))
	grand.End()
	child.End()
	root.End()

	spans := rec.TraceSpans(root.TraceID())
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	byName := map[string]Span{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	if byName["certdir.query"].Err != "boom" || byName["certdir.query"].Attrs["issuer"] != "k1" {
		t.Fatalf("grandchild span missing err/attr: %+v", byName["certdir.query"])
	}
	if byName["prover.remote"].Parent == "" || byName["certdir.query"].Parent == "" {
		t.Fatal("child spans missing parent links")
	}
}

func TestStartSpanNoopWithoutTrace(t *testing.T) {
	ctx, s := StartSpan(context.Background(), "untraced")
	if s != nil {
		t.Fatal("expected nil span on untraced context")
	}
	// nil-span methods must be safe.
	s.SetAttr("k", "v")
	s.Fail(fmt.Errorf("x"))
	s.End()
	if got := Inject(ctx); got != "" {
		t.Fatalf("Inject on untraced ctx = %q, want empty", got)
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	rec := NewRecorder(4)
	ctx, s := rec.Start(context.Background(), "a")
	hdr := Inject(ctx)
	trace, parent, ok := ParseHeader(hdr)
	if !ok || trace != s.TraceID() {
		t.Fatalf("ParseHeader(%q) = %q,%q,%v", hdr, trace, parent, ok)
	}
	rec2 := NewRecorder(4)
	_, remote := rec2.StartFromHeader(context.Background(), hdr, "b")
	if remote.TraceID() != s.TraceID() {
		t.Fatalf("remote span trace %q, want %q", remote.TraceID(), s.TraceID())
	}
	remote.End()
	if got := rec2.TraceSpans(s.TraceID()); len(got) != 1 || got[0].Parent == "" {
		t.Fatalf("remote recorder spans = %+v", got)
	}
	for _, bad := range []string{"", "nohyphen", "xyz-123", "abc-", "-abc"} {
		if _, _, ok := ParseHeader(bad); ok {
			t.Fatalf("ParseHeader(%q) unexpectedly ok", bad)
		}
	}
}

func TestRecorderRingBounds(t *testing.T) {
	rec := NewRecorder(4)
	for i := 0; i < 10; i++ {
		_, s := rec.Start(context.Background(), fmt.Sprintf("s%d", i))
		s.End()
	}
	spans := rec.Spans()
	if len(spans) != 4 {
		t.Fatalf("ring holds %d spans, want 4", len(spans))
	}
	if spans[0].Name != "s6" || spans[3].Name != "s9" {
		t.Fatalf("ring kept %q..%q, want s6..s9", spans[0].Name, spans[3].Name)
	}
	if rec.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", rec.Dropped())
	}
}

func TestTraceHandler(t *testing.T) {
	rec := NewRecorder(8)
	ctx, root := rec.Start(context.Background(), "root")
	_, child := StartSpan(ctx, "child")
	child.End()
	root.End()
	_, other := rec.Start(context.Background(), "other")
	other.End()

	w := httptest.NewRecorder()
	rec.ServeHTTP(w, httptest.NewRequest("GET", "/debug/trace?trace="+root.TraceID(), nil))
	var resp struct {
		Spans []Span `json:"spans"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(resp.Spans) != 2 {
		t.Fatalf("filtered spans = %d, want 2", len(resp.Spans))
	}

	w = httptest.NewRecorder()
	rec.ServeHTTP(w, httptest.NewRequest("GET", "/debug/trace?format=tree", nil))
	tree := w.Body.String()
	if !strings.Contains(tree, "root") || !strings.Contains(tree, "    child") {
		t.Fatalf("tree rendering missing nesting:\n%s", tree)
	}
}

func TestAuditLogRingSinkAndHandler(t *testing.T) {
	var sink bytes.Buffer
	l := NewAuditLog(4)
	l.SetSink(&sink)
	for i := 0; i < 6; i++ {
		v := VerdictAdmit
		if i%2 == 1 {
			v = VerdictDeny
		}
		l.Append(Decision{
			Layer:      "gateway",
			Op:         "Select",
			Principal:  fmt.Sprintf("user%d", i),
			Verdict:    v,
			CertHashes: []string{"aa", "bb"},
			Trace:      "t1",
		})
	}
	l.Append(Decision{Layer: "httpauth", Op: "GET /x", Verdict: VerdictChallenge})

	if l.Admitted() != 3 || l.Denied() != 3 || l.Challenged() != 1 {
		t.Fatalf("counts = %d/%d/%d", l.Admitted(), l.Denied(), l.Challenged())
	}
	if got := l.Recent(0); len(got) != 4 {
		t.Fatalf("ring holds %d, want 4", len(got))
	}
	// Every appended decision reached the JSONL sink.
	lines := strings.Split(strings.TrimSpace(sink.String()), "\n")
	if len(lines) != 7 {
		t.Fatalf("sink has %d lines, want 7", len(lines))
	}
	var d Decision
	if err := json.Unmarshal([]byte(lines[0]), &d); err != nil || d.Time.IsZero() {
		t.Fatalf("sink line unparseable or unstamped: %v %+v", err, d)
	}

	w := httptest.NewRecorder()
	l.ServeHTTP(w, httptest.NewRequest("GET", "/debug/decisions?verdict=deny&layer=gateway", nil))
	var resp struct {
		Denied    uint64     `json:"denied_total"`
		Decisions []Decision `json:"decisions"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if resp.Denied != 3 {
		t.Fatalf("denied_total = %d, want 3", resp.Denied)
	}
	for _, d := range resp.Decisions {
		if d.Verdict != VerdictDeny || d.Layer != "gateway" {
			t.Fatalf("filter leaked %+v", d)
		}
	}
}

func TestAuditLogNilSafe(t *testing.T) {
	var l *AuditLog
	l.Append(Decision{Verdict: VerdictDeny})
	if l.Recent(5) != nil || l.Denied() != 0 {
		t.Fatal("nil AuditLog misbehaved")
	}
	l.SetSink(&bytes.Buffer{})
	if err := l.CloseSink(); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram("sf_test_seconds", "help", 0.001, 0.01, 0.1)
	for _, v := range []float64{0.0005, 0.001, 0.005, 0.05, 3} {
		h.Observe(v)
	}
	cum, sum, count := h.Snapshot()
	// 0.001 is inclusive (le semantics): two observations <= 0.001.
	want := []uint64{2, 3, 4}
	for i, c := range cum {
		if c != want[i] {
			t.Fatalf("cumulative[%d] = %d, want %d (all %v)", i, c, want[i], cum)
		}
	}
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if diff := sum - 3.0565; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("sum = %v, want 3.0565", sum)
	}
	var nilH *Histogram
	nilH.Observe(1)
	nilH.Since(time.Now())
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram("sf_conc_seconds", "help", 0.5)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(0.25)
			}
		}()
	}
	wg.Wait()
	cum, sum, count := h.Snapshot()
	if count != 8000 || cum[0] != 8000 {
		t.Fatalf("count=%d cum=%v, want 8000", count, cum)
	}
	if diff := sum - 2000; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("sum = %v, want 2000", sum)
	}
}

func TestSnapEmptyAndNil(t *testing.T) {
	var h *Histogram
	if s := h.Snap(); s.Count != 0 || s.Sum != 0 || s.Bounds != nil {
		t.Fatalf("nil histogram snap not zero: %+v", s)
	}
	s := NewHistogram("t", "", 1).Snap()
	if s.Count != 0 || s.Sum != 0 || len(s.Cumulative) != 1 || s.Cumulative[0] != 0 {
		t.Fatalf("empty histogram snap not empty: %+v", s)
	}
}
