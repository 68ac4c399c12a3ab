package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// resultSet is the results of one commit: per workload and mode, one
// run per seed, ascending by seed.
type resultSet map[string][]*result

// loadResults reads a result set: one result file, or every result
// file of a directory.
func loadResults(path string) (resultSet, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*-seed*-trace*.json")); err != nil {
			return nil, err
		}
	}
	out := resultSet{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		key := fmt.Sprintf("%s trace=%d", r.Workload, b2i(r.Trace))
		out[key] = append(out[key], &r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no result files", path)
	}
	for _, rs := range out {
		sort.Slice(rs, func(i, j int) bool { return rs[i].Seed < rs[j].Seed })
	}
	return out, nil
}

// compare reads result sets A (the base) and B and reports, per
// workload, the median over the sets' runs of every gated metric. It
// returns 2 when the sets cannot be compared (different workloads,
// seeds, sizes or processor counts), 1 when B's median is worse than
// A's by more than a metric's bound or B's failure rate rose, 0
// otherwise. One run per side is allowed but, on a box that drifts,
// several seeds per side say more.
func compare(pathA, pathB string, out io.Writer) int {
	a, err := loadResults(pathA)
	if err == nil {
		var b resultSet
		if b, err = loadResults(pathB); err == nil {
			return compareSets(a, b, out)
		}
	}
	fmt.Fprintf(out, "compare: %v\n", err)
	return 2
}

// comparable reports why the runs of one workload in A and B were not
// measured alike, or "" when they were.
func comparable(ra, rb []*result) string {
	if len(ra) != len(rb) {
		return fmt.Sprintf("A has %d runs, B has %d", len(ra), len(rb))
	}
	for i := range ra {
		x, y := ra[i], rb[i]
		if x.Seed != y.Seed {
			return fmt.Sprintf("A ran seed %d where B ran seed %d", x.Seed, y.Seed)
		}
		for _, r := range []*result{x, y} {
			if r.Seconds != ra[0].Seconds || r.Stamp.Scale != ra[0].Stamp.Scale ||
				r.Stamp.GOMAXPROCS != ra[0].Stamp.GOMAXPROCS || r.Stamp.NumCPU != ra[0].Stamp.NumCPU {
				return fmt.Sprintf("runs differ in length, scale or processors: %.0fs %s %d/%d against %.0fs %s %d/%d",
					ra[0].Seconds, ra[0].Stamp.Scale, ra[0].Stamp.GOMAXPROCS, ra[0].Stamp.NumCPU,
					r.Seconds, r.Stamp.Scale, r.Stamp.GOMAXPROCS, r.Stamp.NumCPU)
			}
		}
	}
	return ""
}

func compareSets(a, b resultSet, out io.Writer) int {
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for k := range b {
		if a[k] == nil {
			fmt.Fprintf(out, "compare: %s is in B but not in A\n", k)
			return 2
		}
	}
	code := 0
	for _, k := range keys {
		ra, rb := a[k], b[k]
		if rb == nil {
			fmt.Fprintf(out, "compare: %s is in A but not in B\n", k)
			return 2
		}
		if why := comparable(ra, rb); why != "" {
			fmt.Fprintf(out, "compare: %s: not comparable: %s\n", k, why)
			return 2
		}
		fmt.Fprintf(out, "%s  %d run(s) a side  (A %s, B %s)\n", k, len(ra), ra[0].Stamp.Commit, rb[0].Stamp.Commit)
		fa, oa := tally(ra)
		fb, ob := tally(rb)
		if float64(fb)*float64(oa) > float64(fa)*float64(ob) {
			fmt.Fprintf(out, "  REGRESSION failed_ops/ops rose from %d/%d to %d/%d\n", fa, oa, fb, ob)
			code = 1
		}
		if ra[0].Trace {
			continue // per-layer metrics carry no bound
		}
		for _, d := range endToEnd {
			va, vb := medianOf(ra, d.name), medianOf(rb, d.name)
			worse := 0.0 // share of A by which B is worse
			if va != 0 {
				worse = (vb - va) / va
				if d.better == "higher" {
					worse = -worse
				}
			}
			verdict := "ok"
			if worse > d.bound {
				verdict, code = "REGRESSION", 1
			}
			fmt.Fprintf(out, "  %-10s %-14s A %14.4f  B %14.4f  %+7.2f%% worse (bound %.0f%%)\n",
				verdict, d.name, va, vb, 100*worse, 100*d.bound)
		}
	}
	return code
}

func medianOf(rs []*result, metric string) float64 {
	vs := make([]float64, len(rs))
	for i, r := range rs {
		vs[i] = r.Metrics[metric].Value
	}
	return median(vs)
}

func tally(rs []*result) (failed, ops int64) {
	for _, r := range rs {
		failed, ops = failed+r.FailedOps, ops+r.Ops
	}
	return
}
