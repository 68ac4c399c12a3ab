package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// runSpec is one invocation: one workload, one seed, one process.
type runSpec struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	scale    scale
	outDir   string // result files, span files and scratch data live here
}

// metricValue is one metric as the driver reads it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// stamp records what a result was measured on, so -compare can refuse
// to compare runs that are not comparable.
type stamp struct {
	Go         string `json:"go"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"commit"`
	Scale      string `json:"scale"`
	// NotMeasured says what the numbers leave out, next to the numbers.
	NotMeasured string `json:"not_measured"`
}

// result is one run's result file and, cut down to four keys, the
// line the driver reads.
type result struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Trace     bool                   `json:"trace"`
	Stamp     stamp                  `json:"stamp"`
	Correct   bool                   `json:"correct"`
	Ops       int64                  `json:"ops"`
	FailedOps int64                  `json:"failed_ops"`
	SliceCoV  float64                `json:"slice_cov"`
	Retries   int                    `json:"retries"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Info holds measured values that do not repeat within a tenth on
	// a small box, or only describe the run: never gated.
	Info     map[string]float64 `json:"info"`
	Failures []string           `json:"failures,omitempty"`
}

// commit is stamped into every result; run.sh sets it at link time
// when the checkout is a git repository.
var commit = "unknown"

func newStamp(sc scale) stamp {
	return stamp{
		Go: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: nproc(),
		Commit: commit, Scale: sc.name,
		NotMeasured: "disk (WAL policy SyncNever), real network (loopback), cross-machine scheduling (one process)",
	}
}

// maxRetries bounds the section 7.1 re-runs of a region whose slices
// vary by more than maxCoV.
const (
	maxRetries = 2
	maxCoV     = 0.1
)

// tracedBaselineShare is the part of a traced run's time spent on an
// untraced region of the same workload, the base of
// trace.overhead_frac; the traced region gets the rest.
const tracedBaselineShare = 0.4

// runWorkload runs spec and returns its result. An error means the
// run could not be made; a run that was made but produced wrong
// outputs returns a result with Correct false.
func runWorkload(spec runSpec, log io.Writer) (*result, error) {
	work, err := os.MkdirTemp(spec.outDir, "work-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	res := &result{
		Workload: spec.workload, Seed: spec.seed, Seconds: spec.seconds, Trace: spec.traced,
		Stamp: newStamp(spec.scale), Metrics: map[string]metricValue{}, Info: map[string]float64{},
	}
	dur := time.Duration(spec.seconds * float64(time.Second))
	if spec.traced {
		err = runTraced(spec, dur, work, res, log)
	} else {
		err = runUntraced(spec, dur, work, res, log)
	}
	if err != nil {
		return nil, err
	}
	res.Correct = res.FailedOps == 0
	res.Info["peak_rss_mb"] = peakRSSMB()
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is not finite", name)
		}
	}
	return res, nil
}

// account folds operation counts into the result.
func (res *result) account(attempted, failed int64, failures []string) {
	res.Ops += attempted
	res.FailedOps += failed
	res.Failures = append(res.Failures, failures...)
}

func runUntraced(spec runSpec, dur time.Duration, work string, res *result, log io.Writer) error {
	w, err := newWorkload(spec.workload, spec.scale, spec.seed, spec.seconds, nil, work)
	if err != nil {
		return err
	}
	defer w.close()
	var setups []float64
	setUp := func() error {
		t0 := time.Now()
		if err := w.setUp(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		fmt.Fprintf(log, "set-up %d: %.3fs\n", len(setups), setups[len(setups)-1])
		return nil
	}
	for i := 0; i < spec.scale.setupReps; i++ {
		if err := setUp(); err != nil {
			return err
		}
	}

	// Section 7.1: a region whose slices disagree is run again, at most
	// twice, each time on a world set up afresh (a workload's cost may
	// depend on its own history, so a second region on a used world is
	// not the same experiment). The steadiest attempt is reported.
	var best *region
	bestCoV := math.Inf(1)
	for attempt := 0; ; attempt++ {
		r, err := w.region(dur)
		if err != nil {
			return err
		}
		res.account(r.attempted, r.failed, r.failures)
		if err := r.validate(); err != nil {
			return err
		}
		c := cov(r.sliceRates())
		fmt.Fprintf(log, "region %d: %d ops, slice rates %.0f, CoV %.3f\n", attempt+1, r.steadyOps(), r.sliceRates(), c)
		if c < bestCoV {
			best, bestCoV = r, c
		}
		if c <= maxCoV || attempt == maxRetries {
			break
		}
		res.Retries++
		if err := setUp(); err != nil {
			return err
		}
	}
	res.account(w.finish())
	res.SliceCoV = bestCoV

	lat := best.steadyLatencies()
	first, last := best.marks[1], best.marks[len(best.marks)-1]
	ops := float64(best.steadyOps())
	values := map[string]float64{
		"setup_s":       median(setups),
		"ops_per_s":     median(best.sliceRates()),
		"op_p50_us":     quantile(lat, 0.5),
		"cpu_us_per_op": us(last.cpu-first.cpu) / ops,
	}
	for _, d := range endToEnd {
		res.Metrics[d.name] = metricValue{values[d.name], d.unit}
	}

	for k, v := range best.info {
		res.Info[k] = v
	}
	res.Info["latency_samples"] = float64(len(lat))
	if p99, ok := honestQuantile(lat, 0.99); ok {
		res.Info["op_p99_us"] = p99
	}
	res.Info["alloc_kb_per_op"] = float64(last.alloc-first.alloc) / 1024 / ops
	res.Info["steady_ops"] = ops
	return nil
}

func runTraced(spec runSpec, dur time.Duration, work string, res *result, log io.Writer) error {
	// The untraced base of trace.overhead_frac: same workload, same
	// process, its own world, no decorator and no recorder.
	base, err := newWorkload(spec.workload, spec.scale, spec.seed, spec.seconds, nil, work)
	if err != nil {
		return err
	}
	defer base.close()
	if err := base.setUp(); err != nil {
		return fmt.Errorf("set-up (untraced base): %w", err)
	}
	rb, err := base.region(time.Duration(float64(dur) * tracedBaselineShare))
	if err != nil {
		return err
	}
	res.account(rb.attempted, rb.failed, rb.failures)
	if err := rb.validate(); err != nil {
		return fmt.Errorf("untraced base: %w", err)
	}
	base.close()

	tr := newTracer()
	w, err := newWorkload(spec.workload, spec.scale, spec.seed, spec.seconds, tr, work)
	if err != nil {
		return err
	}
	defer w.close()
	if err := w.setUp(); err != nil {
		return fmt.Errorf("set-up (traced): %w", err)
	}
	r, err := w.region(time.Duration(float64(dur) * (1 - tracedBaselineShare)))
	if err != nil {
		return err
	}
	res.account(r.attempted, r.failed, r.failures)
	if err := r.validate(); err != nil {
		return fmt.Errorf("traced region: %w", err)
	}
	res.account(w.finish())
	res.SliceCoV = cov(r.sliceRates())

	values, inputs, err := w.layers()
	if err != nil {
		return err
	}
	replay, err := layerReplay(inputs, spec.scale.replay, work)
	if err != nil {
		return err
	}
	for k, v := range replay {
		values[k] = v
	}
	spans := tr.spans()
	spanFile := filepath.Join(spec.outDir, spec.workload+".spans.json")
	if err := writeSpans(spanFile, spans); err != nil {
		return err
	}
	sum := analyzeSpans(spans)
	fmt.Fprintf(log, "%d spans in %d traces written to %s (%d dropped by the rings)\n",
		len(spans), sum.traces, spanFile, tr.client.Dropped()+tr.prog.Dropped())
	values["certdir.query_us"] = tr.query.median()
	values["certdir.serve_us"] = tr.dirServe.median()
	values["gateway.serve_us"] = tr.gwServe.median()
	values["rmi.call_us"] = tr.rmiCall.median()
	values["gateway.self_us"] = sum.selfUs["gateway.admit"]
	values["client.mint_us"] = sum.selfUs["client.mint"]
	values["client.http_overhead_us"] = sum.selfUs["client.roundtrip"]
	values["trace.residual_frac"] = sum.residual
	if spec.workload == "dir_publish" {
		values["certdir.publish_wire_us"] = quantile(r.steadyLatencies(), 0.5)
	}
	if untraced := median(rb.sliceRates()); untraced > 0 {
		values["trace.overhead_frac"] = 1 - median(r.sliceRates())/untraced
	}
	for _, d := range perLayer {
		res.Metrics[d.name] = metricValue{values[d.name], d.unit} // 0 where the workload has no such layer
	}
	for name, v := range sum.selfUs {
		res.Info["self_us."+name] = v
	}
	res.Info["traces"] = float64(sum.traces)
	res.Info["trace_root_p50_us"] = sum.rootUs
	return nil
}

// print writes the human-readable table, then, as the last line, the
// one JSON object the driver reads.
func (res *result) print(out io.Writer) error {
	fmt.Fprintf(out, "workload %s  seed %d  %.0fs  trace %v  scale %s  GOMAXPROCS %d  %s  commit %s\n",
		res.Workload, res.Seed, res.Seconds, res.Trace, res.Stamp.Scale, res.Stamp.GOMAXPROCS, res.Stamp.Go, res.Stamp.Commit)
	fmt.Fprintf(out, "not measured: %s\n", res.Stamp.NotMeasured)
	defs := endToEnd
	if res.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Fprintf(out, "  %-32s %14.4f %-6s %s\n", d.name, res.Metrics[d.name].Value, d.unit, d.what)
	}
	keys := make([]string, 0, len(res.Info))
	for k := range res.Info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(out, "  %-32s %14.4f        (informational)\n", k, res.Info[k])
	}
	fmt.Fprintf(out, "  ops %d  failed_ops %d  slice_cov %.4f  retries %d\n", res.Ops, res.FailedOps, res.SliceCoV, res.Retries)
	for _, f := range res.Failures {
		fmt.Fprintf(out, "  FAILED: %s\n", f)
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Ops, res.FailedOps, res.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// write stores the full result where -compare can find it.
func (res *result) write(dir string) (string, error) {
	name := fmt.Sprintf("%s-seed%d-trace%d.json", res.Workload, res.Seed, b2i(res.Trace))
	path := filepath.Join(dir, name)
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
