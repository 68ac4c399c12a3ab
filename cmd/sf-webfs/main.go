// Command sf-webfs runs the protected web file server of paper
// section 6.1: control rests with the hash of the owner's public key;
// subtrees are shared by issuing delegation certificates (see the
// -share flags), never by accounts or ACLs.
//
// Usage:
//
//	sf-webfs -root ./public -owner-key alice.key -addr :8080
//	sf-webfs -owner-key alice.key -share-prefix /pub/ -share-to '<principal sexp>'
//
// Like every sf-* daemon it boots through internal/daemon
// (daemon.WebFS) on the shared server runtime: -admin-addr serves
// /metrics (proof-cache counters), and SIGTERM drains the listener
// gracefully. This command is the boot's flag glue.
package main

import "repro/internal/daemon"

func main() { daemon.Main(daemon.WebFS) }
