package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// DefLatencyBuckets are the default histogram bounds, in seconds,
// spanning sub-millisecond cache hits to multi-second cold discovery
// over a slow mesh.
var DefLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket latency histogram with lock-free
// observation. Buckets hold NON-cumulative per-bucket counts
// internally; Snapshot returns the cumulative form Prometheus
// exposition wants. Observe on a nil receiver no-ops, so flows are
// instrumented whether or not a daemon wired a registry.
type Histogram struct {
	name   string
	help   string
	bounds []float64       // upper bounds, ascending; +Inf implied
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	sum    atomic.Uint64   // float64 bits, CAS-accumulated
}

// NewHistogram builds a histogram named name with the given ascending
// upper bounds (DefLatencyBuckets when none are given).
func NewHistogram(name, help string, bounds ...float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefLatencyBuckets
	}
	b := append([]float64(nil), bounds...)
	return &Histogram{name: name, help: help, bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Name and Help identify the histogram in the exposition.
func (h *Histogram) Name() string { return h.name }
func (h *Histogram) Help() string { return h.help }

// Bounds returns the finite upper bounds.
func (h *Histogram) Bounds() []float64 { return append([]float64(nil), h.bounds...) }

// Observe records one value (seconds, for the latency histograms).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Since observes the elapsed time from start, in seconds.
func (h *Histogram) Since(start time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(start).Seconds())
}

// Snapshot returns cumulative bucket counts aligned with Bounds()
// (cumulative[i] = observations <= bounds[i]), the running sum, and
// the total count. Count is derived from the buckets themselves so
// the implicit +Inf bucket always equals _count, even when Observe
// races a scrape.
func (h *Histogram) Snapshot() (cumulative []uint64, sum float64, count uint64) {
	cumulative = make([]uint64, len(h.bounds))
	var acc uint64
	for i := range h.bounds {
		acc += h.counts[i].Load()
		cumulative[i] = acc
	}
	count = acc + h.counts[len(h.bounds)].Load()
	return cumulative, math.Float64frombits(h.sum.Load()), count
}

// Snap is an immutable point-in-time copy of a histogram: Snapshot
// gives Prometheus its cumulative counts, Snap gives a harness one
// consistent reading of buckets, sum and count together.
type Snap struct {
	Bounds     []float64 // finite upper bounds, ascending
	Cumulative []uint64  // aligned with Bounds
	Sum        float64
	Count      uint64 // includes the implicit +Inf bucket
}

// Snap captures the histogram. A nil histogram snaps to the zero
// value, mirroring Observe's nil tolerance.
func (h *Histogram) Snap() Snap {
	if h == nil {
		return Snap{}
	}
	cum, sum, count := h.Snapshot()
	return Snap{Bounds: h.Bounds(), Cumulative: cum, Sum: sum, Count: count}
}
