package server

import (
	"bufio"
	"context"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/channel/plain"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rmi"
)

// TestHistogramExpositionFormat locks the Prometheus histogram text
// convention byte-for-byte: cumulative _bucket series ending at
// le="+Inf", then _sum and _count. Dashboards parse this exact shape;
// a drifted renderer fails silently at scrape time, so the format is
// pinned here instead.
func TestHistogramExpositionFormat(t *testing.T) {
	h := obs.NewHistogram("sf_test_seconds", "Test histogram.", 0.5, 1, 10)
	for _, v := range []float64{0.25, 0.75, 2, 20} {
		h.Observe(v)
	}
	want := strings.Join([]string{
		`# HELP sf_test_seconds Test histogram.`,
		`# TYPE sf_test_seconds histogram`,
		`sf_test_seconds_bucket{le="0.5"} 1`,
		`sf_test_seconds_bucket{le="1"} 2`,
		`sf_test_seconds_bucket{le="10"} 3`,
		`sf_test_seconds_bucket{le="+Inf"} 4`,
		`sf_test_seconds_sum 23`,
		`sf_test_seconds_count 4`,
	}, "\n") + "\n"
	if got := renderHistogram(h); got != want {
		t.Fatalf("exposition drifted:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

var metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// expoSample is one parsed sample line: bare name (labels stripped)
// and value.
type expoSample struct {
	name  string
	value float64
}

// parseExposition lints the raw text while parsing it: every sample
// must follow a # TYPE for its family, # HELP (when present) must
// immediately precede its # TYPE, and every name must be syntactically
// valid. Returns family->type and the samples in order.
func parseExposition(t *testing.T, text string) (map[string]string, []expoSample) {
	t.Helper()
	types := make(map[string]string)
	var samples []expoSample
	var pendingHelp string
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			f := strings.Fields(line)
			if len(f) < 4 {
				t.Fatalf("HELP line without text: %q", line)
			}
			pendingHelp = f[2]
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			name, typ := f[2], f[3]
			if pendingHelp != "" && pendingHelp != name {
				t.Fatalf("HELP for %s not followed by its TYPE (got %s)", pendingHelp, name)
			}
			pendingHelp = ""
			if !metricNameRe.MatchString(name) {
				t.Fatalf("invalid metric name %q", name)
			}
			if _, dup := types[name]; dup {
				t.Fatalf("duplicate TYPE for %s", name)
			}
			switch typ {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("unknown type %q for %s", typ, name)
			}
			types[name] = typ
			continue
		}
		if pendingHelp != "" {
			t.Fatalf("HELP for %s not followed by a TYPE line", pendingHelp)
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line: %q", line)
		}
		full := line[:sp]
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		bare := full
		if i := strings.IndexByte(bare, '{'); i >= 0 {
			bare = bare[:i]
		}
		if !metricNameRe.MatchString(bare) {
			t.Fatalf("invalid sample name %q", bare)
		}
		family := bare
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if f := strings.TrimSuffix(bare, suf); f != bare && types[f] == "histogram" {
				family = f
			}
		}
		if _, ok := types[family]; !ok {
			t.Fatalf("sample %q has no preceding TYPE", line)
		}
		samples = append(samples, expoSample{name: full, value: v})
	}
	return types, samples
}

// TestMetricsExpositionLint scrapes a live runtime's /metrics twice
// and lints the output like a strict Prometheus parser would:
// HELP/TYPE pairing, name syntax, counters monotone across scrapes,
// histogram buckets cumulative with le="+Inf" equal to _count. It
// also checks the rest of the admin observability surface answers.
func TestMetricsExpositionLint(t *testing.T) {
	rt := New("lint-test")
	defer rt.Shutdown()
	pc := core.NewProofCache(8)
	rt.Metrics().Register(ProofCacheCollector(pc))
	mux := rt.AdminMux()

	// Put traffic on every surface so the lint sees non-trivial values.
	lat := rt.Latencies()
	lat.ColdAdmit.Observe(0.42)
	lat.WarmAdmit.Observe(0.0002)
	rt.Audit().Append(obs.Decision{Layer: "test", Verdict: obs.VerdictAdmit})
	_, span := rt.Tracer().Start(context.Background(), "lint.span")
	span.End()
	pc.Lookup([32]byte{1}, time.Now(), 0)

	ts := httptest.NewServer(mux)
	defer ts.Close()
	scrape := func() string {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	first := scrape()
	types, samples1 := parseExposition(t, first)

	// The standard latency set must be present as histograms.
	for _, name := range []string{
		"sf_admit_cold_seconds", "sf_admit_warm_seconds",
		"sf_publish_ack_seconds", "sf_gossip_round_seconds",
		"sf_crl_install_seconds",
	} {
		if types[name] != "histogram" {
			t.Fatalf("%s: type %q, want histogram", name, types[name])
		}
	}

	// Histogram invariants: buckets cumulative, +Inf bucket == _count.
	values := make(map[string]float64)
	for _, s := range samples1 {
		values[s.name] = s.value
	}
	for name, typ := range types {
		if typ != "histogram" {
			continue
		}
		prev := -1.0
		var inf float64
		for _, s := range samples1 {
			if !strings.HasPrefix(s.name, name+"_bucket{") {
				continue
			}
			if s.value < prev {
				t.Fatalf("%s buckets not cumulative: %q drops below %g", name, s.name, prev)
			}
			prev = s.value
			inf = s.value
		}
		if count := values[name+"_count"]; inf != count {
			t.Fatalf("%s: le=\"+Inf\" bucket %g != _count %g", name, inf, count)
		}
	}

	// Bump counters between scrapes; every counter must be monotone.
	pc.Lookup([32]byte{2}, time.Now(), 0)
	rt.Audit().Append(obs.Decision{Layer: "test", Verdict: obs.VerdictDeny})
	lat.ColdAdmit.Observe(1.5)
	_, samples2 := parseExposition(t, scrape())
	after := make(map[string]float64)
	for _, s := range samples2 {
		after[s.name] = s.value
	}
	for _, s := range samples1 {
		bare := s.name
		if i := strings.IndexByte(bare, '{'); i >= 0 {
			bare = bare[:i]
		}
		monotone := types[bare] == "counter" ||
			strings.HasSuffix(bare, "_bucket") || strings.HasSuffix(bare, "_count") || strings.HasSuffix(bare, "_sum")
		if !monotone {
			continue
		}
		v2, ok := after[s.name]
		if !ok {
			t.Fatalf("counter %q vanished between scrapes", s.name)
		}
		if v2 < s.value {
			t.Fatalf("counter %q went backwards: %g -> %g", s.name, s.value, v2)
		}
	}

	// The rest of the debug surface answers on the same mux.
	for _, path := range []string{"/debug/trace", "/debug/decisions", "/debug/pprof/"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
	}
}

// drainService blocks one call until released so the test can shut
// the runtime down with the call in flight.
type drainService struct {
	entered chan struct{}
	release chan struct{}
}

type drainArgs struct{ Msg string }
type drainReply struct{ Msg string }

func (s *drainService) Hold(args drainArgs, reply *drainReply) error {
	close(s.entered)
	<-s.release
	reply.Msg = args.Msg
	return nil
}

// TestServeRMIGracefulShutdown: a call in flight when Shutdown starts
// must complete — the runtime closes the listener first (no new
// connections) and drains dispatches before tearing channels down.
func TestServeRMIGracefulShutdown(t *testing.T) {
	rt := New("rmi-drain-test")
	rt.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	rt.ShutdownTimeout = 5 * time.Second

	svc := &drainService{entered: make(chan struct{}), release: make(chan struct{})}
	srv := rmi.NewServer()
	if err := srv.RegisterOpen("drain", svc); err != nil {
		t.Fatal(err)
	}
	l, err := plain.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rt.ServeRMI(l, srv)

	c, err := rmi.Dial(plain.Dialer{}, l.Addr().String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	callErr := make(chan error, 1)
	var reply drainReply
	go func() {
		callErr <- c.Call("drain", "Hold", drainArgs{Msg: "held"}, &reply)
	}()
	select {
	case <-svc.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("call never entered dispatch")
	}

	go func() {
		time.Sleep(50 * time.Millisecond)
		close(svc.release)
	}()
	rt.Shutdown()

	select {
	case err := <-callErr:
		if err != nil {
			t.Fatalf("in-flight call failed across shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight call never completed")
	}
	if reply.Msg != "held" {
		t.Fatalf("reply = %+v", reply)
	}

	// The listener is down: new dials fail or are refused on first call.
	if c2, err := rmi.Dial(plain.Dialer{}, l.Addr().String(), nil); err == nil {
		var r drainReply
		if err := c2.Call("drain", "Hold", drainArgs{Msg: "late"}, &r); err == nil {
			t.Fatal("call after shutdown succeeded")
		}
		c2.Close()
	}
}
