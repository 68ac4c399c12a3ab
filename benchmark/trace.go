package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"time"

	"repro/internal/obs"
)

// rootSpan is the span the benchmark opens around one whole admit,
// mint to body read: the client-observed latency.
const rootSpan = "client.admit"

// traceSummary is the per-layer reading of a traced region's spans.
type traceSummary struct {
	traces int
	rootUs float64 // median duration of the root span
	// selfUs is, per span name, the median over traces of the self
	// time the name's spans had in that trace (0 where a trace has no
	// such span). A span's self time is its duration minus the part
	// its child spans cover; where children run in parallel (a cold
	// admit fans its directory queries out), each instant is shared
	// equally among the innermost spans open at it, so that the self
	// times of one trace add up to its root's duration, not to more.
	selfUs map[string]float64
	// residual is |rootUs - sum of selfUs| / rootUs: how far the
	// per-layer medians are from adding up to the median whole.
	residual float64
}

// analyzeSpans groups spans by trace, keeps the traces that have a
// root span (a ring that wrapped loses some), and computes self times.
func analyzeSpans(spans []obs.Span) traceSummary {
	byTrace := map[string][]obs.Span{}
	for _, s := range spans {
		byTrace[s.Trace] = append(byTrace[s.Trace], s)
	}
	perName := map[string][]float64{} // name -> self µs per analyzed trace
	var roots []float64
	for _, group := range byTrace {
		self, rootDur, ok := selfTimes(group)
		if !ok {
			continue
		}
		for name := range self {
			if _, seen := perName[name]; !seen {
				perName[name] = make([]float64, len(roots)) // zeros for earlier traces
			}
		}
		for name := range perName {
			perName[name] = append(perName[name], us(self[name]))
		}
		roots = append(roots, us(rootDur))
	}
	sum := traceSummary{traces: len(roots), rootUs: median(roots), selfUs: map[string]float64{}}
	var total float64
	for name, xs := range perName {
		sum.selfUs[name] = median(xs)
		total += sum.selfUs[name]
	}
	if sum.rootUs > 0 {
		sum.residual = math.Abs(sum.rootUs-total) / sum.rootUs
	}
	return sum
}

// selfTimes attributes the root span's interval of one trace to span
// names. ok is false when the trace has no root span.
func selfTimes(group []obs.Span) (self map[string]time.Duration, rootDur time.Duration, ok bool) {
	var root *obs.Span
	for i, s := range group {
		if s.Name == rootSpan && s.Parent == "" {
			root = &group[i]
		}
	}
	if root == nil {
		return nil, 0, false
	}
	// Keep the spans that hang under the root, clipped to it.
	lo, hi := root.Start, root.Start.Add(root.Duration)
	type open struct {
		id, parent, name string
		from, to         time.Time
	}
	clip := func(s obs.Span) open {
		o := open{s.ID, s.Parent, s.Name, s.Start, s.Start.Add(s.Duration)}
		if o.from.Before(lo) {
			o.from = lo
		}
		if o.to.After(hi) {
			o.to = hi
		}
		return o
	}
	tree := []open{clip(*root)}
	under := map[string]bool{root.ID: true}
	// A parent may sit after its children in the ring: sweep until no
	// span is added.
	for added := true; added; {
		added = false
		for _, s := range group {
			if !under[s.ID] && under[s.Parent] {
				under[s.ID] = true
				tree = append(tree, clip(s))
				added = true
			}
		}
	}
	cuts := make([]time.Time, 0, 2*len(tree))
	for _, o := range tree {
		cuts = append(cuts, o.from, o.to)
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i].Before(cuts[j]) })
	self = map[string]time.Duration{}
	for i := 1; i < len(cuts); i++ {
		a, b := cuts[i-1], cuts[i]
		if !b.After(a) {
			continue
		}
		// The innermost open spans: open across [a,b) with no open child.
		hasOpenChild := map[string]bool{}
		var live []open
		for _, o := range tree {
			if !o.from.After(a) && !o.to.Before(b) {
				live = append(live, o)
				hasOpenChild[o.parent] = true
			}
		}
		var inner []open
		for _, o := range live {
			if !hasOpenChild[o.id] {
				inner = append(inner, o)
			}
		}
		for _, o := range inner {
			self[o.name] += b.Sub(a) / time.Duration(len(inner))
		}
	}
	return self, root.Duration, true
}

// writeSpans writes every span to path as one JSON array.
func writeSpans(path string, spans []obs.Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
