// Command sf-gateway runs the quoting protocol gateway of paper
// section 6.3: an HTML-over-HTTP front end that forwards mailbox
// operations to the sf-dbserver over secure-channel RMI, quoting each
// HTTP client so the database makes the real access-control decision.
//
// Usage:
//
//	sf-gateway -key gw.key -db 127.0.0.1:7001 -db-issuer '<principal sexp>' -addr 127.0.0.1:8081
//	sf-gateway -key gw.key -db 127.0.0.1:7001 -db-issuer '<principal sexp>' -certdir http://127.0.0.1:8360
//
// With -certdir the gateway's prover additionally discovers
// delegation chains from the certificate directory and subscribes to
// its invalidation event stream, so revoked or retracted delegations
// are dropped from the prover's cache the moment the directory stops
// vouching for them. The gateway digests a delegation per client;
// -sweep bounds the graph by evicting expired edges on a timer (the
// runtime schedules it — the old every-256-digests heuristic idled
// exactly when traffic stopped and cleanup mattered). -admin-addr
// serves /metrics.
//
// The boot lives in internal/daemon (daemon.Gateway), where tests run
// it; this command is its flag glue.
package main

import "repro/internal/daemon"

func main() { daemon.Main(daemon.Gateway) }
