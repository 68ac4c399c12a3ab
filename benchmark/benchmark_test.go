package main

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/certdir"
	"repro/internal/loadgen"
)

// TestHonestPercentiles pins the BENCH_8 case: three samples have no
// p99, only a maximum, so none is reported.
func TestHonestPercentiles(t *testing.T) {
	three := sorted([]float64{175.0, 242.5, 248.5})
	if v, ok := honestQuantile(three, 0.99); ok {
		t.Errorf("p99 of 3 samples reported as %v", v)
	}
	if _, ok := honestQuantile(three, 0.5); ok {
		t.Errorf("p50 of 3 samples reported: fewer than %d samples lie beyond it", minBeyond)
	}
	var many []float64
	for i := 1; i <= 1000; i++ {
		many = append(many, float64(i))
	}
	if v, ok := honestQuantile(many, 0.99); !ok || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want the exact order statistic 990", v, ok)
	}
	if _, ok := honestQuantile(many[:999], 0.99); ok {
		t.Errorf("p99 of 999 samples reported with only 9 beyond it")
	}
	if got := quantile(three, 0.5); got != 242.5 {
		t.Errorf("median of three = %v, want the middle sample", got)
	}
}

// TestCoVIgnoresTrend: a series on a line is not noisy.
func TestCoVIgnoresTrend(t *testing.T) {
	if c := cov([]float64{120, 110, 100, 90, 80, 70}); c > 1e-9 {
		t.Errorf("cov of a straight line = %v, want 0", c)
	}
	if c := cov([]float64{100, 140, 100, 140, 100, 140}); c < 0.1 {
		t.Errorf("cov of a saw-tooth = %v, want well above 0.1", c)
	}
}

// TestManifestMatchesCode holds BENCHMARK.json and the metric tables
// in step: the driver reads the former, the benchmark prints from the
// latter.
func TestManifestMatchesCode(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var m struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.Paths, []string{"benchmark"}) || !reflect.DeepEqual(m.Command, []string{"bash", "benchmark/run.sh"}) {
		t.Errorf("command %v paths %v", m.Command, m.Paths)
	}
	if m.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d in the manifest, --seconds defaults to %d", m.RunSeconds, defaultSeconds)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the manifest, %d in code", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: manifest %+v, code %+v", i, m.Workloads[i], w)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in the manifest, %d in code", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: manifest %+v, code %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.bound) {
				t.Errorf("%s %s: bound in manifest %v, in code %v", kind, d.name, g.Bound, d.bound)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd, true)
	check("per_layer", m.PerLayer, perLayer, false)
}

func toyRun(t *testing.T, name string, seed int64, traced bool, seconds float64) *result {
	t.Helper()
	res, err := runWorkload(runSpec{
		workload: name, seed: seed, seconds: seconds, traced: traced, scale: toyScale, outDir: t.TempDir(),
	}, io.Discard)
	if err != nil {
		t.Fatalf("%s seed %d traced %v: %v", name, seed, traced, err)
	}
	if !res.Correct || res.FailedOps != 0 || res.Ops < 1 {
		t.Fatalf("%s seed %d traced %v: ops %d, failed_ops %d: %v", name, seed, traced, res.Ops, res.FailedOps, res.Failures)
	}
	return res
}

func wantMetrics(t *testing.T, res *result, defs []metricDef, nonZero bool) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics printed, %d declared", res.Workload, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", res.Workload, d.name)
		case m.Unit != d.unit:
			t.Errorf("%s: metric %s has unit %q, want %q", res.Workload, d.name, m.Unit, d.unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: metric %s = %v", res.Workload, d.name, m.Value)
		case nonZero && m.Value <= 0:
			t.Errorf("%s: end-to-end metric %s = %v, must be positive", res.Workload, d.name, m.Value)
		}
	}
}

// TestWorkloadsToyScale runs every workload end to end at toy scale:
// untraced, traced, and untraced again on a second seed.
func TestWorkloadsToyScale(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			wantMetrics(t, toyRun(t, w.name, 1, false, 0.4), endToEnd, true)
			toyRun(t, w.name, 2, false, 0.25)

			traced := toyRun(t, w.name, 1, true, 0.5)
			wantMetrics(t, traced, perLayer, false)
			q := traced.Metrics["prover.remote_queries_per_op"].Value
			switch w.name {
			case "admit_warm":
				if q != 0 {
					t.Errorf("admit_warm made %v directory queries per admit, want 0", q)
				}
			case "admit_cold":
				if q <= 0 {
					t.Errorf("admit_cold made no directory queries")
				}
			}
			if strings.HasPrefix(w.name, "admit_") && traced.Info["traces"] < 1 {
				t.Errorf("%s: traced run recorded no complete trace", w.name)
			}
		})
	}
}

// TestSeedDeterminesInputs: the same seed and world clock give the
// same delegation world and the same target order; another seed gives
// another world.
func TestSeedDeterminesInputs(t *testing.T) {
	now := time.Date(2026, 1, 2, 3, 0, 0, 0, time.UTC)
	a, err := buildGraph(7, 32, 4, now)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := buildGraph(7, 32, 4, now)
	c, _ := buildGraph(8, 32, 4, now)
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("same seed, different Graph.Fingerprint()")
	}
	if a.Fingerprint() == c.Fingerprint() {
		t.Error("different seeds, same Graph.Fingerprint()")
	}
	p1, _ := mintCorpus(7, "t", 16, now)
	p2, _ := mintCorpus(7, "t", 16, now)
	for i := range p1 {
		if !p1[i].Equal(p2[i]) {
			t.Fatalf("same seed, different certificate %d of the corpus", i)
		}
	}
}

// TestCheckersFlagWrongOutputs forges the outputs the checkers exist
// to catch.
func TestCheckersFlagWrongOutputs(t *testing.T) {
	alice := &loadgen.Synthetic{Index: 0, Owner: "u00000"}
	mallory := &loadgen.Synthetic{Index: 1, Owner: "u00001"}
	good := []byte("<h1>Mailbox: u00000</h1> " + mailSubject("u00000"))
	w := &admitWorkload{victims: []*victim{nil, {}}}
	started := time.Now()

	if ok, err := w.judge(alice, started, http.StatusOK, good); !ok || err != nil {
		t.Errorf("correct admit judged %v, %v", ok, err)
	}
	if _, err := w.judge(alice, started, http.StatusForbidden, []byte("denied")); err == nil {
		t.Error("a 403 for a principal nobody revoked passed the check")
	}
	if _, err := w.judge(alice, started, http.StatusOK, []byte("<h1>Mailbox: u00001</h1> "+mailSubject("u00001"))); err == nil {
		t.Error("a 200 carrying somebody else's mailbox passed the check")
	}

	// A victim: admitted or denied while the revocation is in flight,
	// never admitted once the rejection has been seen.
	v := w.victims[mallory.Index]
	v.revokedAt.Store(started.Add(-2 * time.Second).UnixNano())
	if ok, err := w.judge(mallory, started, http.StatusForbidden, nil); ok || err != nil {
		t.Errorf("rejected victim judged %v, %v", ok, err)
	}
	if ok, err := w.judge(mallory, started, http.StatusOK, nil); ok || err != nil {
		t.Errorf("victim admitted while its revocation is in flight judged %v, %v", ok, err)
	}
	v.deniedAt.Store(started.Add(-time.Second).UnixNano())
	if _, err := w.judge(mallory, started, http.StatusOK, nil); err == nil {
		t.Error("a victim admitted after its rejection was observed passed the check")
	}

	// A restored store with one certificate missing.
	now := time.Now()
	corpus, err := mintCorpus(1, "check", 6, now)
	if err != nil {
		t.Fatal(err)
	}
	src, full, short := certdir.NewStore(0), certdir.NewStore(0), certdir.NewStore(0)
	for i, c := range corpus {
		for _, st := range []*certdir.Store{src, full, short} {
			if st == short && i == 3 {
				continue
			}
			if _, err := st.Publish(c, now); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := checkRestored("test", src, full); err != nil {
		t.Errorf("identical store rejected: %v", err)
	}
	if err := checkRestored("test", src, short); err == nil {
		t.Error("a restored store missing one certificate passed the check")
	}
}

// TestCompare: equal sets pass, a gated median beyond its bound or a
// risen failure rate fails, unlike sets are refused.
func TestCompare(t *testing.T) {
	// mk builds a set of one workload with one run per value of
	// ops_per_s, on seeds 1, 2, ...
	mk := func(failed int64, procs int, opsPerS ...float64) resultSet {
		set := resultSet{}
		for i, v := range opsPerS {
			r := &result{
				Workload: "admit_warm", Seed: int64(i + 1), Seconds: 12, Ops: 1000, FailedOps: failed,
				Stamp:   stamp{GOMAXPROCS: procs, NumCPU: procs, Scale: "full"},
				Metrics: map[string]metricValue{},
			}
			for _, d := range endToEnd {
				r.Metrics[d.name] = metricValue{100, d.unit}
			}
			r.Metrics["ops_per_s"] = metricValue{v, "1/s"}
			set["admit_warm trace=0"] = append(set["admit_warm trace=0"], r)
		}
		return set
	}
	bound := endToEnd[0].bound
	for _, tc := range []struct {
		name string
		a, b resultSet
		want int
	}{
		{"same", mk(0, 2, 4000), mk(0, 2, 4000), 0},
		{"within bound", mk(0, 2, 4000), mk(0, 2, 4000*(1-bound+0.02)), 0},
		{"better", mk(0, 2, 4000), mk(0, 2, 5000), 0},
		{"beyond bound", mk(0, 2, 4000), mk(0, 2, 4000*(1-bound-0.02)), 1},
		{"one slow run of three", mk(0, 2, 4000, 4000, 4000), mk(0, 2, 4000, 2000, 4000), 0},
		{"median of three beyond bound", mk(0, 2, 4000, 4000, 4000), mk(0, 2, 2000, 2000, 4000), 1},
		{"failures rose", mk(0, 2, 4000), mk(3, 2, 4000), 1},
		{"other processor count", mk(0, 2, 4000), mk(0, 4, 4000), 2},
		{"other seeds", mk(0, 2, 4000, 4000), mk(0, 2, 4000), 2},
		{"missing workload", mk(0, 2, 4000), resultSet{}, 2},
	} {
		if got := compareSets(tc.a, tc.b, io.Discard); got != tc.want {
			t.Errorf("%s: compare exit %d, want %d", tc.name, got, tc.want)
		}
	}
}
