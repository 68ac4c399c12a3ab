// Command sf-certd runs the certificate directory daemon: principals
// publish signed delegations, provers on other machines query by
// issuer or subject to discover speaks-for chains (internal/certdir).
//
// Usage:
//
//	sf-certd -addr 127.0.0.1:8360
//	sf-certd -addr 127.0.0.1:8360 -shards 64 -sweep 30s -crl revoked.crl
//	sf-certd -addr 127.0.0.1:8360 -data-dir /var/lib/sf-certd \
//	         -fsync always -peer http://dir-b:8360 -peer http://dir-c:8360
//	sf-certd -addr 127.0.0.1:8360 -admin-auth -operator operator.prin \
//	         -ctl-key dirA.key -ctl-cert dirA-ctl.cert -peer http://dir-b:8360
//
// With -data-dir the directory is durable: accepted publishes,
// removals and CRLs are journaled to a write-ahead log before they are
// acknowledged, and a restart replays the log. With one or more -peer
// flags the directory replicates: it follows each peer's record
// stream, so the peers' publishes, removals and CRLs arrive as they
// happen, and a periodic anti-entropy round pulls whatever a follow
// missed. The -crl file holds CRL S-expressions (one per line or
// concatenated); listed certificates are evicted at every sweep, and
// the file is re-read without a restart on SIGHUP or through the
// POST /certdir/admin/reload endpoint. CRLs also arrive live over
// POST /certdir/admin/crl and reach the peers that follow this
// directory, and every removal or revocation is emitted on the
// /certdir/events stream so subscribed provers drop their cached
// copies.
//
// With -admin-auth the control plane is closed: publish, remove, and
// the admin endpoints demand a speaks-for proof that the request
// speaks for the -operator principal regarding (sf-ctl publish) or
// (sf-ctl admin) — the same certificates, the same proof cache, the
// same revocation pipeline as the data plane, so revoking an
// operator credential locks its holder out on the next request. The
// one write the daemon makes at a peer, an anti-entropy removal
// repair, is signed with -ctl-key plus the -ctl-cert chain.
// -admin-addr serves /metrics (Prometheus format).
// docs/OPERATIONS.md covers every flag and counter in detail.
//
// The boot lives in internal/daemon (daemon.Certd), where tests run
// it; this command is its flag glue.
package main

import "repro/internal/daemon"

func main() { daemon.Main(daemon.Certd) }
