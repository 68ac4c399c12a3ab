package main

import (
	"math"
	"sort"
)

// minBeyond is the floor under which a percentile is not a
// measurement: with fewer than this many samples beyond it, the
// "p99" of a small run is just its maximum (the BENCH_8 case: a p99
// of three samples).
const minBeyond = 10

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// quantile is the exact order statistic of ascending s at q: the
// smallest sample with at least a fraction q of the samples at or
// below it. No interpolation, no bucket edges.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// honestQuantile is quantile, refused (ok false) unless at least
// minBeyond samples lie beyond the requested rank.
func honestQuantile(s []float64, q float64) (v float64, ok bool) {
	rank := int(math.Ceil(q * float64(len(s))))
	if len(s)-rank < minBeyond {
		return 0, false
	}
	return quantile(s, q), true
}

// median of an unsorted sample (0 when empty).
func median(xs []float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// cov is the coefficient of variation of xs around their
// least-squares line over the sample index: root mean square residual
// over mean, 0 when undefined. For a steady series this is the usual
// standard deviation over mean. The line is taken out because a
// workload whose cost grows with its own history (every cold admit
// enlarges the graph the next one searches) has a trend across its
// slices, and a trend repeats from run to run: it is signal, where
// section 7.1's re-run rule is about noise.
func cov(xs []float64) float64 {
	n := float64(len(xs))
	if n < 3 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for i, y := range xs {
		x := float64(i)
		sx, sy, sxx, sxy = sx+x, sy+y, sxx+x*x, sxy+x*y
	}
	mean := sy / n
	if mean == 0 {
		return 0
	}
	slope := (n*sxy - sx*sy) / (n*sxx - sx*sx)
	icpt := (sy - slope*sx) / n
	var ss float64
	for i, y := range xs {
		r := y - (icpt + slope*float64(i))
		ss += r * r
	}
	return math.Sqrt(ss/n) / mean
}
