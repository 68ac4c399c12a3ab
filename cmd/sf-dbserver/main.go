// Command sf-dbserver runs the protected relational email database of
// paper section 6.2 as an RMI service over the secure channel.
// Delegations of mailbox authority are issued with -grant-owner.
//
// Usage:
//
//	sf-dbserver -key db.key -addr 127.0.0.1:7001
//	sf-dbserver -key db.key -addr 127.0.0.1:7001 -crl revoked.crl -admin-addr 127.0.0.1:7002
//	sf-dbserver -key db.key -admin-addr 127.0.0.1:7002 -admin-auth -operator operator.prin
//	sf-dbserver -key db.key -grant-owner alice -grant-to '<principal sexp>'
//
// The -crl file (same format as sf-certd's: CRL S-expressions, one
// per line or concatenated) is re-read without a restart on SIGHUP or
// via POST /certdir/admin/reload on the -admin-addr listener;
// individual CRLs can also be installed live via POST
// /certdir/admin/crl. These are the directory's admin pair, served by
// the same certdir handler with the same replies, so certdir.Client
// drives both daemons. Every install bumps the proof-cache epoch, so
// revocation bites on the next RMI call, not the next restart. With
// -admin-auth (which requires -operator) the admin endpoints demand a
// speaks-for proof for the -operator principal regarding (sf-ctl
// admin) — the same machinery the database itself enforces on
// mailboxes. The admin listener also serves /metrics.
//
// The boot lives in internal/daemon (daemon.DBServer), where tests run
// it; this command is its flag glue.
package main

import "repro/internal/daemon"

func main() { daemon.Main(daemon.DBServer) }
