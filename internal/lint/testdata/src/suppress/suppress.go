// Package suppress pins the //sfvet:ignore contract: a reasoned
// directive on the flagged line (or the line above) silences exactly
// the named analyzer, and nothing else leaks through.
package suppress

import "repro/internal/server"

// Same-line form.
var _ = server.Counter("sf_legacy_requests", "", 1) //sfvet:ignore metricname grandfathered dashboard name predating the _total convention

// Line-above form.
//
//sfvet:ignore metricname grandfathered dashboard name predating the _total convention
var _ = server.Counter("sf_legacy_hits", "", 1)

// A directive names ONE analyzer: others still fire on the same line.
var _ = server.Gauge("sf_ignored_total", "", 1) //sfvet:ignore clockcheck wrong analyzer named, gauge finding must survive // want "must not end in _total"

// The comma form covers several analyzers at once.
var _ = server.Counter("sf_multi", "", 1) //sfvet:ignore metricname,clockcheck grandfathered name, and no clock is read here
