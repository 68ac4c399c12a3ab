// Command sf-proxy is the client-side authorizing HTTP proxy of paper
// section 5.3.5: it forwards each browser request to the origin
// server, answers Snowflake challenges from its Prover, and serves an
// HTML user interface at http://security.localhost/ for creating
// keys, importing delegations, and delegating authority over
// recently visited pages.
//
// Usage:
//
//	sf-proxy -addr 127.0.0.1:3128 [-key user.key] [-admin-addr 127.0.0.1:3129]
//
// The proxy holds a long-lived prover (imported delegations, minted
// shortcuts); -sweep evicts its expired edges on a timer through the
// shared server runtime. -admin-addr serves /metrics.
//
// The boot and the proxy itself live in internal/daemon
// (daemon.Proxy), where tests run them; this command is its flag glue.
package main

import "repro/internal/daemon"

func main() { daemon.Main(daemon.Proxy) }
