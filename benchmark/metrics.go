package main

// metricDef declares one metric exactly as BENCHMARK.json does; the
// self-test holds the two in step.
type metricDef struct {
	name   string
	unit   string
	better string  // "higher" or "lower"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
	what   string
}

// endToEnd are the gated metrics, printed by an untraced run. Every
// workload reports every one; what an operation is depends on the
// workload (README.md): an admit, a publish visible at the peer, or a
// certificate restored. The bounds are the widest the driver allows:
// the box this was sized on drifts by a fifth for minutes at a time
// (README.md, "Observed spreads"), and a gate tighter than the box's
// own drift rejects changes that changed nothing.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher", 0.25, "correct operations per second, median slice of the timed region"},
	{"op_p50_us", "us", "lower", 0.25, "client-observed median latency of one operation"},
	{"cpu_us_per_op", "us", "lower", 0.25, "process user+system CPU per operation (getrusage)"},
	{"setup_s", "s", "lower", 0.25, "everything before the timed region; median of repeated set-ups"},
}

// perLayer are the ungated single-layer metrics, printed by a traced
// run. The prefix is the package the number belongs to. A layer the
// workload does not exercise reports 0.
var perLayer = []metricDef{
	{name: "sfkey.sig_verifies_per_op", unit: "1/op", better: "lower", what: "sfkey.SigVerifies() delta over operations"},
	{name: "sfkey.verify_us", unit: "us", better: "lower", what: "one PublicKey.Verify, direct call"},
	{name: "sfkey.sign_us", unit: "us", better: "lower", what: "one PrivateKey.Sign, direct call"},
	{name: "sfkey.batch_verify_us_per_sig", unit: "us", better: "lower", what: "BatchVerifier over 1024 signatures, per signature"},
	{name: "sexp.parse_us", unit: "us", better: "lower", what: "sexp.ParseOne of one certificate frame"},
	{name: "core.parse_proof_us", unit: "us", better: "lower", what: "core.ParseProof of one captured request proof"},
	{name: "core.proofcache_hit_ratio", unit: "ratio", better: "higher", what: "shared ProofCache hits over lookups in the region"},
	{name: "core.epoch_bumps", unit: "count", better: "lower", what: "shared ProofCache epoch advance in the region"},
	{name: "cert.verify_chain_cold_us", unit: "us", better: "lower", what: "cert.VerifyChain of a 3-certificate chain, empty cache"},
	{name: "cert.verify_chain_warm_us", unit: "us", better: "lower", what: "the same chain, primed cache"},
	{name: "prover.remote_queries_per_op", unit: "1/op", better: "lower", what: "directory queries the provers issued per operation"},
	{name: "prover.remote_certs_per_query", unit: "ratio", better: "higher", what: "fresh certificates digested per directory query (useful over attempts)"},
	{name: "prover.negcache_hits", unit: "count", better: "higher", what: "directory queries the negative cache suppressed"},
	{name: "prover.find_local_us", unit: "us", better: "lower", what: "Prover.FindProof over a pre-fed graph, no directory"},
	{name: "certdir.query_us", unit: "us", better: "lower", what: "one RemoteSource query as the prover sees it, median"},
	{name: "certdir.serve_us", unit: "us", better: "lower", what: "certdir.Service.ServeHTTP, median over all endpoints hit"},
	{name: "certdir.store_publish_us", unit: "us", better: "lower", what: "Store.Publish into a journaled store, signature pre-verified"},
	{name: "certdir.publish_wire_us", unit: "us", better: "lower", what: "Client.Publish round trip, median"},
	{name: "certdir.wal_records", unit: "count", better: "lower", what: "WAL appends across directories in the region"},
	{name: "certdir.repl_pushed", unit: "count", better: "higher", what: "replication pushes delivered in the region"},
	{name: "certdir.repl_failed", unit: "count", better: "lower", what: "replication pushes abandoned or shed by a full queue"},
	{name: "gateway.serve_us", unit: "us", better: "lower", what: "gateway.ServeHTTP from outside, median"},
	{name: "gateway.self_us", unit: "us", better: "lower", what: "gateway.admit span minus its rmi and prover children, median"},
	{name: "rmi.call_us", unit: "us", better: "lower", what: "one RMI request/reply exchange on the channel, median"},
	{name: "obs.audit_append_ns", unit: "ns", better: "lower", what: "one AuditLog.Append, direct call"},
	{name: "client.mint_us", unit: "us", better: "lower", what: "client.mint span: build and sign one request"},
	{name: "client.http_overhead_us", unit: "us", better: "lower", what: "client.roundtrip span minus the gateway's span"},
	{name: "trace.residual_frac", unit: "ratio", better: "lower", what: "|median client.admit - sum of median self times| over the former"},
	{name: "trace.overhead_frac", unit: "ratio", better: "lower", what: "1 - traced over untraced ops_per_s, same process"},
}

// workloadDef names one workload and why it exists.
type workloadDef struct {
	name string
	why  string
}

var workloads = []workloadDef{
	{"admit_warm", "steady state: every chain cached, zipf-targeted signed GETs; discovery and directories must stay idle"},
	{"admit_cold", "first contact: each principal admitted once, its chain discovered in the directories and verified from scratch"},
	{"admit_churn", "admit_warm beside a fixed-rate revocation schedule: invalidation next to lookup, and the safety checks"},
	{"dir_publish", "directory write path: publish at A until visible at B (verify, WAL, Merkle, push replication)"},
	{"dir_bootstrap", "bulk restore from a cold cache: snapshot bootstrap from a peer, then WAL replay (batch verify)"},
}
