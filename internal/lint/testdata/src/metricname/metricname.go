// Package metricname exercises the Prometheus naming analyzer:
// sf_ namespace, _total counters, _seconds/_bytes histograms,
// compile-time constant names.
package metricname

import (
	"repro/internal/obs"
	"repro/internal/server"
)

var (
	_ = server.Counter("sf_requests_total", "", 1)
	_ = server.Counter("sf_requests", "", 1)       // want "must end in _total"
	_ = server.Counter("requests_total", "", 1)    // want "must match"
	_ = server.Counter("sf_Requests_total", "", 1) // want "must match"

	_ = server.Gauge("sf_queue_depth", "", 1)
	_ = server.Gauge("sf_queue_total", "", 1) // want "must not end in _total"

	_ = obs.NewHistogram("sf_admit_seconds", "")
	_ = obs.NewHistogram("sf_frame_bytes", "")
	_ = obs.NewHistogram("sf_admit", "") // want "must end in a base unit"
)

// dynamic names cannot be linted or grepped.
func dynamic(name string) server.Metric {
	return server.Counter(name+"_total", "", 1) // want "compile-time constant"
}
