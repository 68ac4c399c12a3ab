package certdir

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/cert"
	"repro/internal/httpauth"
	"repro/internal/obs"
	"repro/internal/principal"
	"repro/internal/sexp"
	"repro/internal/tag"
)

// Wire protocol. Every request body and response body is a single
// S-expression (canonical, transport, or advanced encoding — the
// parser accepts all three), keeping the directory on the same wire
// language as the rest of the system (section 2.4).
//
//	POST /certdir/publish   (proof signed-certificate ...)      -> (published) | (duplicate)
//	POST /certdir/publish   (certs <proof>...)                  -> (published (added n) (rejected r))
//	POST /certdir/query     (query issuer|subject <principal>
//	                               [(limit <n>)] [(tag <texpr>)]) -> (certs <proof>...)
//	POST /certdir/remove    (remove <hash octets>)              -> (removed) | (absent)
//	GET  /certdir/stats                                         -> (stats (published N) ...)
//
// The optional query clauses bound the answer server-side: (limit n)
// caps the number of certificates returned, (tag t) keeps only
// delegations whose tag covers t (the prover's edge-usability test),
// so heavy issuers don't ship irrelevant delegations. Without them the
// answer is every live certificate, unbounded.
//
// Anti-entropy replication (see Replicator and merkle.go) adds four
// peer-facing endpoints: a Merkle tree descent that locates the
// differing content hashes, and a fetch for the certificates behind
// them:
//
//	POST /certdir/gossip/root    (mroot)           -> (mroot (params <leaves> <arity>) (sum <count> <xor16>))
//	POST /certdir/gossip/nodes   (mnodes <idx>...) -> (mnodes (sum <idx> <count> <xor16>)...)
//	POST /certdir/gossip/leaves  (mleaves <idx>...)-> (mleaves (leaf <idx> <hash>...)...)
//	POST /certdir/gossip/fetch   (fetch <hash>...) -> (certs <proof>...)
//
// None of the gossip endpoints is trusted any more than publish is:
// fetched certificates are re-verified by the puller before indexing,
// and serving summaries or hashes reveals only content hashes of
// certificates the directory would hand out anyway.
// Revocation propagation adds four endpoints:
//
//	POST /certdir/events       (events <after> [(wait <ms>)]) -> (events (next <n>) [(reset)] (ev remove|revoke <hash>)...)
//	POST /certdir/admin/crl    (crl ...)                      -> (crl-installed (evicted n)) | (crl-duplicate)
//	POST /certdir/admin/reload (reload-crl)                   -> (reloaded (added n) (total m) (evicted k))
//	POST /certdir/gossip/crls  (crls <have-hash>...)          -> (crls <crl>...)
//
// The events stream is the directory->prover invalidation channel: a
// long-poll cursor protocol over the store's EventLog (see events.go
// for cursor and reset semantics). The admin endpoints install a CRL
// (or re-read the daemon's -crl file) without a restart; installation
// verifies the CRL signature, evicts the delegations its SIGNER
// signed (see Store.EvictRevoked for why the signer match matters),
// bumps the proof-cache epoch, and fans the CRL out to gossip peers.
// The admin pair is the only CRL admin surface in the system:
// sf-dbserver serves the same two paths with the same replies through
// AdminHandler, installing into its revocation store alone (it has no
// store to evict from and no peers). The gossip/crls endpoint serves
// the installed CRLs — minus the ones the asking peer already has —
// so one domain's revocation evicts at every peer directly instead of
// waiting for per-directory tombstones; pullers verify every CRL
// before applying it, exactly like certificates.
//
// Snapshot bootstrap adds one bulk endpoint: GET /certdir/snapshot
// streams the directory's live contents as a base segment of WAL
// records with a trailer (see snapshot.go) so a cold peer loads the
// whole store in one verify-before-index transfer instead of thousands
// of gossip fetch rounds. Like every gossip surface it reveals only what
// query already serves, and the bootstrapper re-verifies everything.
const (
	PathPublish      = "/certdir/publish"
	PathQuery        = "/certdir/query"
	PathRemove       = "/certdir/remove"
	PathStats        = "/certdir/stats"
	PathFetch        = "/certdir/gossip/fetch"
	PathGossipRoot   = "/certdir/gossip/root"
	PathGossipNodes  = "/certdir/gossip/nodes"
	PathGossipLeaves = "/certdir/gossip/leaves"
	PathSnapshot     = "/certdir/snapshot"
	PathCRLs         = "/certdir/gossip/crls"
	PathEvents       = "/certdir/events"
	PathAdminCRL     = "/certdir/admin/crl"
	PathReload       = "/certdir/admin/reload"
)

// maxEventWait caps the long-poll duration a client may request; a
// subscriber wanting to wait longer re-polls, so a directory never
// holds a handler goroutine hostage indefinitely.
const maxEventWait = 30 * time.Second

// maxBody bounds request bodies; a delegation certificate is a few
// hundred bytes and a gossip fetch asks for at most a few thousand
// 32-byte hashes, so 1 MiB leaves generous headroom without letting a
// client balloon the server.
const maxBody = 1 << 20

// Service serves a Store over HTTP.
type Service struct {
	Store *Store
	// Replicator, when set, contributes its counters to the stats
	// endpoint and receives newly installed CRLs for fan-out. The
	// service never drives its loops — cmd/sf-certd does.
	Replicator *Replicator
	// Clock supplies the service's notion of now; nil means time.Now.
	Clock func() time.Time
	// Revocations, when set, enables the revocation endpoints
	// (admin/crl, admin/reload, gossip/crls): CRLs installed through
	// them land here, bumping the shared proof-cache epoch.
	Revocations *cert.RevocationStore
	// ReloadCRLs, when set, is invoked by the admin reload endpoint
	// (cmd/sf-certd wires it to re-read the -crl file, evict, and
	// gossip the new lists; SIGHUP runs the same function).
	ReloadCRLs func() (added, total, evicted int, err error)
	// Guard, when set, closes the control plane: every MUTATING
	// endpoint — publish, remove, and the admin endpoints (which is
	// also where peers push gossip: a gossip push IS a publish,
	// remove, or admin CRL install at the receiver) — requires a
	// speaks-for proof that the request speaks for the directory's
	// operator principal regarding the operation's control tag
	// (cert.CtlTag). Read-only endpoints (query, stats, events, and
	// the gossip pull surface, which reveals nothing query does not)
	// stay open. Nil leaves the directory open, the pre-auth
	// behavior; docs/OPERATIONS.md describes the migration.
	Guard *httpauth.CtlGuard
	// Obs, when set, records one span per served endpoint, continuing
	// the trace named by the request's Sf-Trace header — the directory
	// leg of a cold admit's trace tree.
	Obs *obs.Recorder
	// PublishHist, when set, observes receipt-to-acknowledgment
	// seconds for each successful publish.
	PublishHist *obs.Histogram
	// CRLHist, when set, observes install-through-eviction seconds for
	// each CRL newly installed via the admin endpoint.
	CRLHist *obs.Histogram
	// SnapshotPath, when set, is the snapshot file the daemon's
	// snapshot loop maintains (WriteSnapshotFile); the
	// snapshot endpoint serves it as written. Unset — or before the
	// first snapshot exists — the endpoint streams a live snapshot
	// straight from the store.
	SnapshotPath string
}

// NewService wraps a store.
func NewService(st *Store) *Service { return &Service{Store: st} }

func (s *Service) now() time.Time {
	if s.Clock != nil {
		return s.Clock()
	}
	//sfvet:ignore clockcheck this nil-clock fallback is the Service.Clock injection seam itself
	return time.Now()
}

// CtlTagFor maps a mutating directory path to the control tag its
// caller must prove under an enforcing directory; the zero tag means
// the path is read-only (never guarded). Clients use the same map to
// decide which requests to sign.
func CtlTagFor(path string) tag.Tag {
	switch path {
	case PathPublish, PathRemove:
		return cert.CtlTag(cert.CtlPublish)
	case PathAdminCRL, PathReload:
		return cert.CtlTag(cert.CtlAdmin)
	}
	return tag.Tag{}
}

// ServeHTTP dispatches the directory protocol.
func (s *Service) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.Obs != nil {
		_, span := s.Obs.StartFromHeader(r.Context(), r.Header.Get(obs.TraceHeader), spanName(r.URL.Path))
		defer span.End()
	}
	switch r.URL.Path {
	case PathPublish:
		post(w, r, s.Guard, s.handlePublish)
	case PathQuery:
		post(w, r, s.Guard, s.handleQuery)
	case PathRemove:
		post(w, r, s.Guard, s.handleRemove)
	case PathFetch:
		post(w, r, s.Guard, s.handleFetch)
	case PathGossipRoot:
		post(w, r, s.Guard, s.handleMerkleRoot)
	case PathGossipNodes:
		post(w, r, s.Guard, s.handleMerkleNodes)
	case PathGossipLeaves:
		post(w, r, s.Guard, s.handleMerkleLeaves)
	case PathSnapshot:
		s.handleSnapshot(w, r)
	case PathCRLs:
		post(w, r, s.Guard, s.handleCRLs)
	case PathEvents:
		post(w, r, s.Guard, s.handleEvents)
	case PathAdminCRL, PathReload:
		s.admin().ServeHTTP(w, r)
	case PathStats:
		reply(w, s.statsSexp())
	default:
		http.Error(w, "certdir: no such endpoint", http.StatusNotFound)
	}
}

// spanName maps a wire path to its span name: "certdir." plus the
// path under the protocol prefix ("certdir.query",
// "certdir.admin/crl").
func spanName(path string) string {
	return "certdir." + strings.TrimPrefix(strings.TrimPrefix(path, "/certdir/"), "/")
}

// post parses the request body as one S-expression and runs the
// handler; handler errors become 400s. Under an enforcing guard,
// mutating paths are authorized first — after the body bound (an
// over-limit body is a 413, never a 401) and against the raw body
// bytes, which the request principal covers, so a proof cannot be
// replayed onto a different mutation.
//
// The body is read through http.MaxBytesReader, which also closes the
// connection on abuse, unlike a silent LimitReader truncation that
// would hand the parser half an S-expression.
func post(w http.ResponseWriter, r *http.Request, guard *httpauth.CtlGuard, h func(sexp.Sexp) (sexp.Sexp, error)) {
	if r.Method != http.MethodPost {
		http.Error(w, "certdir: POST required", http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, "certdir: body exceeds limit", http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, "certdir: bad body", http.StatusBadRequest)
		return
	}
	if guard != nil {
		if ctl := CtlTagFor(r.URL.Path); ctl.Valid() {
			if err := guard.Authorize(r, body, ctl); err != nil {
				guard.Challenge(w, ctl, err)
				return
			}
		}
	}
	e, err := sexp.ParseOne(body)
	if err != nil {
		http.Error(w, "certdir: bad S-expression: "+err.Error(), http.StatusBadRequest)
		return
	}
	resp, err := h(e)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	reply(w, resp)
}

func reply(w http.ResponseWriter, e sexp.Sexp) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write(e.Canonical())
}

func (s *Service) handlePublish(e sexp.Sexp) (sexp.Sexp, error) {
	start := time.Now()
	resp, err := s.doPublish(e)
	if err == nil {
		s.PublishHist.Since(start)
	}
	return resp, err
}

// doPublish indexes one certificate or a (certs <cert>...) run
// through Store.indexVerified, which verifies before it indexes. An
// explicit publish outranks a removal tombstone (pulled is false),
// whether a client sent it or a peer pushed it. One certificate is
// answered (published) or (duplicate), and a refusal is an error; a
// run is answered with its tallies, a refused certificate not
// stopping the others.
func (s *Service) doPublish(e sexp.Sexp) (sexp.Sexp, error) {
	if e.Tag() == "certs" {
		certs, err := parseCerts(e)
		if err != nil {
			return nil, fmt.Errorf("certdir: publish: %w", err)
		}
		added, rejected, _ := s.Store.indexVerified(certs, s.now(), false, false)
		row := func(name string, v int) sexp.Sexp {
			return sexp.List(sexp.String(name), sexp.String(strconv.Itoa(v)))
		}
		return sexp.List(sexp.String("published"), row("added", added), row("rejected", rejected)), nil
	}
	c, err := certFromSexp(e)
	if err != nil {
		return nil, fmt.Errorf("certdir: publish: %w", err)
	}
	added, _, err := s.Store.indexVerified([]*cert.Cert{c}, s.now(), false, false)
	switch {
	case err != nil:
		return nil, err
	case added == 0:
		return sexp.List(sexp.String("duplicate")), nil
	}
	return sexp.List(sexp.String("published")), nil
}

func (s *Service) handleQuery(e sexp.Sexp) (sexp.Sexp, error) {
	if e.Tag() != "query" || e.Len() < 3 || !e.Nth(1).IsAtom() {
		return nil, fmt.Errorf("certdir: query wants (query issuer|subject <principal> [(limit n)] [(tag t)])")
	}
	p, err := principal.FromSexp(e.Nth(2))
	if err != nil {
		return nil, fmt.Errorf("certdir: query principal: %w", err)
	}
	f, err := queryFilter(e)
	if err != nil {
		return nil, err
	}
	var certs []*cert.Cert
	switch by := e.Nth(1).Text(); by {
	case "issuer":
		certs = s.Store.ByIssuerFiltered(p, s.now(), f)
	case "subject":
		certs = s.Store.BySubjectFiltered(p, s.now(), f)
	default:
		return nil, fmt.Errorf("certdir: unknown query axis %q", by)
	}
	return certsSexp(certs), nil
}

// queryFilter decodes the optional (limit n) and (tag t) clauses after
// the principal; an absent clause leaves the zero (unbounded) filter.
func queryFilter(e sexp.Sexp) (QueryFilter, error) {
	var f QueryFilter
	for i := 3; i < e.Len(); i++ {
		c := e.Nth(i)
		switch c.Tag() {
		case "limit":
			if c.Len() != 2 || !c.Nth(1).IsAtom() {
				return f, fmt.Errorf("certdir: query limit wants (limit <n>)")
			}
			n, err := strconv.Atoi(c.Nth(1).Text())
			if err != nil || n < 0 {
				return f, fmt.Errorf("certdir: bad query limit %q", c.Nth(1).Text())
			}
			f.Limit = n
		case "tag":
			t, err := tag.FromSexp(c)
			if err != nil {
				return f, fmt.Errorf("certdir: query tag: %w", err)
			}
			f.Tag = t
		default:
			return f, fmt.Errorf("certdir: unknown query clause %q", c.Tag())
		}
	}
	return f, nil
}

func certsSexp(certs []*cert.Cert) sexp.Sexp {
	kids := make([]sexp.Sexp, 0, len(certs)+1)
	kids = append(kids, sexp.String("certs"))
	for _, c := range certs {
		kids = append(kids, c.Sexp())
	}
	return sexp.List(kids...)
}

func (s *Service) handleRemove(e sexp.Sexp) (sexp.Sexp, error) {
	if e.Tag() != "remove" || e.Len() != 2 || !e.Nth(1).IsAtom() {
		return nil, fmt.Errorf("certdir: remove wants (remove <hash>)")
	}
	if s.Store.Remove(e.Nth(1).Bytes()) {
		return sexp.List(sexp.String("removed")), nil
	}
	return sexp.List(sexp.String("absent")), nil
}

// handleFetch answers (fetch <hash>...) with the live certificates
// matching the hashes; absent or expired ones are silently omitted.
func (s *Service) handleFetch(e sexp.Sexp) (sexp.Sexp, error) {
	if e.Tag() != "fetch" || e.Len() < 2 {
		return nil, fmt.Errorf("certdir: fetch wants (fetch <hash>...)")
	}
	hashes := make([][]byte, 0, e.Len()-1)
	for i := 1; i < e.Len(); i++ {
		h := e.Nth(i)
		if !h.IsAtom() {
			return nil, fmt.Errorf("certdir: fetch hash %d is not an atom", i)
		}
		hashes = append(hashes, h.Bytes())
	}
	return certsSexp(s.Store.ByHashes(hashes, s.now())), nil
}

// handleMerkleRoot answers (mroot) with the tree parameters and the
// root summary — the single round trip two converged peers exchange
// per gossip round, a few dozen bytes regardless of store size.
func (s *Service) handleMerkleRoot(e sexp.Sexp) (sexp.Sexp, error) {
	if e.Tag() != "mroot" || e.Len() != 1 {
		return nil, fmt.Errorf("certdir: root wants (mroot)")
	}
	root := s.Store.MerkleRoot()
	return sexp.List(
		sexp.String("mroot"),
		sexp.List(sexp.String("params"),
			sexp.String(strconv.Itoa(MerkleLeaves)),
			sexp.String(strconv.Itoa(MerkleArity))),
		sexp.List(sexp.String("sum"),
			sexp.String(strconv.Itoa(root.Count)),
			sexp.Atom(root.XOR[:])),
	), nil
}

// handleMerkleNodes answers (mnodes <idx>...) with the summaries of
// the named tree nodes; the puller descends only into subtrees whose
// summaries disagree with its own.
func (s *Service) handleMerkleNodes(e sexp.Sexp) (sexp.Sexp, error) {
	if e.Tag() != "mnodes" || e.Len() < 2 {
		return nil, fmt.Errorf("certdir: nodes wants (mnodes <idx>...)")
	}
	idxs := make([]int, 0, e.Len()-1)
	for i := 1; i < e.Len(); i++ {
		n, err := strconv.Atoi(e.Nth(i).Text())
		if err != nil || n < 0 || n >= MerkleNodeCount {
			return nil, fmt.Errorf("certdir: bad node index %q", e.Nth(i).Text())
		}
		idxs = append(idxs, n)
	}
	kids := []sexp.Sexp{sexp.String("mnodes")}
	for _, m := range s.Store.MerkleSummaries(idxs) {
		kids = append(kids, sexp.List(sexp.String("sum"),
			sexp.String(strconv.Itoa(m.Index)),
			sexp.String(strconv.Itoa(m.Count)),
			sexp.Atom(m.XOR[:])))
	}
	return sexp.List(kids...), nil
}

// handleMerkleLeaves answers (mleaves <leaf>...) — leaf-array indexes,
// 0..MerkleLeaves-1 — with the full content-hash list of each named
// leaf: the terminal step of a descent, fetched only for the leaves
// that actually disagree.
func (s *Service) handleMerkleLeaves(e sexp.Sexp) (sexp.Sexp, error) {
	if e.Tag() != "mleaves" || e.Len() < 2 {
		return nil, fmt.Errorf("certdir: leaves wants (mleaves <leaf>...)")
	}
	leaves := make([]int, 0, e.Len()-1)
	for i := 1; i < e.Len(); i++ {
		n, err := strconv.Atoi(e.Nth(i).Text())
		if err != nil || n < 0 || n >= MerkleLeaves {
			return nil, fmt.Errorf("certdir: bad leaf index %q", e.Nth(i).Text())
		}
		leaves = append(leaves, n)
	}
	byLeaf := s.Store.HashesInLeaves(leaves)
	kids := []sexp.Sexp{sexp.String("mleaves")}
	for _, lf := range leaves {
		row := []sexp.Sexp{sexp.String("leaf"), sexp.String(strconv.Itoa(lf))}
		for _, h := range byLeaf[lf] {
			row = append(row, sexp.Atom(h))
		}
		kids = append(kids, sexp.List(row...))
	}
	return sexp.List(kids...), nil
}

// handleSnapshot streams the bootstrap snapshot. Unlike every other
// endpoint the reply is a frame sequence, not one S-expression, and
// is not bounded by sexp.MaxTotal — the cold peer reads it frame by
// frame, as replay reads a segment. When the daemon maintains a snapshot file
// (SnapshotPath) it is served as written — one fsynced, atomically
// renamed artifact — otherwise the store streams a live snapshot.
// Read-only and unguarded, like the rest of the gossip pull surface:
// it reveals nothing query does not already serve.
func (s *Service) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "certdir: GET required", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	if s.SnapshotPath != "" {
		if f, err := os.Open(s.SnapshotPath); err == nil {
			defer f.Close()
			io.Copy(w, f)
			return
		}
		// No snapshot written yet: fall through to a live stream.
	}
	// A mid-stream failure cannot be reported in a status line at this
	// point; the truncated stream fails the reader's trailer check,
	// which is how the bootstrapper detects partial transfers anyway.
	s.Store.WriteSnapshot(w, s.now())
}

// handleEvents serves the invalidation stream: (events <after>
// [(wait <ms>)]) answers with every retained event after the cursor,
// long-polling up to the requested wait when the cursor is current.
// See events.go for cursor and reset semantics.
func (s *Service) handleEvents(e sexp.Sexp) (sexp.Sexp, error) {
	if e.Tag() != "events" || e.Len() < 2 || !e.Nth(1).IsAtom() {
		return nil, fmt.Errorf("certdir: events wants (events <after> [(wait <ms>)])")
	}
	after, err := strconv.ParseUint(e.Nth(1).Text(), 10, 64)
	if err != nil {
		return nil, fmt.Errorf("certdir: bad events cursor %q", e.Nth(1).Text())
	}
	var wait time.Duration
	for i := 2; i < e.Len(); i++ {
		c := e.Nth(i)
		if c.Tag() != "wait" || c.Len() != 2 || !c.Nth(1).IsAtom() {
			return nil, fmt.Errorf("certdir: unknown events clause %s", c)
		}
		ms, err := strconv.Atoi(c.Nth(1).Text())
		if err != nil || ms < 0 {
			return nil, fmt.Errorf("certdir: bad events wait %q", c.Nth(1).Text())
		}
		wait = time.Duration(ms) * time.Millisecond
	}
	if wait > maxEventWait {
		wait = maxEventWait
	}
	evs, next, reset := s.Store.Events().Wait(after, wait)
	kids := []sexp.Sexp{
		sexp.String("events"),
		sexp.List(sexp.String("next"), sexp.String(strconv.FormatUint(next, 10))),
	}
	if reset {
		kids = append(kids, sexp.List(sexp.String("reset")))
	}
	for _, ev := range evs {
		kids = append(kids, sexp.List(sexp.String("ev"), sexp.String(ev.Kind), sexp.Atom(ev.Hash)))
	}
	return sexp.List(kids...), nil
}

// AdminHandler serves the CRL admin pair (PathAdminCRL, PathReload;
// wire forms above) for a daemon that verifies but keeps no directory,
// such as sf-dbserver. The directory Service serves the pair through
// the same code, so one Client (PushCRL, ReloadCRLs) drives both.
// install is the daemon's one CRL install function, the one it hands
// server.Runtime.WireCRLFile; reload, when non-nil, is the function
// WireCRLFile returns. guard, when non-nil, demands a (sf-ctl admin)
// proof; hist, when non-nil, observes each newly installed CRL. Other
// paths answer 404.
func AdminHandler(install func([]*cert.RevocationList) (added, evicted int, err error), reload func() (added, total, evicted int, err error), guard *httpauth.CtlGuard, hist *obs.Histogram) http.Handler {
	return crlAdmin{install: install, reload: reload, guard: guard, hist: hist}
}

// crlAdmin is the CRL admin pair behind AdminHandler and Service.
type crlAdmin struct {
	install func([]*cert.RevocationList) (added, evicted int, err error)
	reload  func() (added, total, evicted int, err error)
	guard   *httpauth.CtlGuard
	hist    *obs.Histogram
}

// admin binds the pair to the directory: an install verifies, evicts
// what the list's signer signed, and fans out to peers (InstallCRLs).
// Without Revocations the install endpoint is disabled.
func (s *Service) admin() crlAdmin {
	a := crlAdmin{reload: s.ReloadCRLs, guard: s.Guard, hist: s.CRLHist}
	if s.Revocations != nil {
		a.install = func(lists []*cert.RevocationList) (int, int, error) {
			res := InstallCRLs(s.Revocations, s.Store, s.Replicator, lists, s.now())
			return res.Installed, res.Evicted, res.Err
		}
	}
	return a
}

func (a crlAdmin) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case PathAdminCRL:
		post(w, r, a.guard, a.handleCRL)
	case PathReload:
		post(w, r, a.guard, a.handleReload)
	default:
		http.Error(w, "certdir: no such endpoint", http.StatusNotFound)
	}
}

// handleCRL installs one CRL without a restart. Duplicates are
// acknowledged idempotently so gossip floods terminate.
func (a crlAdmin) handleCRL(e sexp.Sexp) (sexp.Sexp, error) {
	if a.install == nil {
		return nil, fmt.Errorf("certdir: revocation endpoints not enabled")
	}
	rl, err := cert.RevocationListFromSexp(e)
	if err != nil {
		return nil, fmt.Errorf("certdir: admin crl: %w", err)
	}
	start := time.Now()
	added, evicted, err := a.install([]*cert.RevocationList{rl})
	if err != nil {
		return nil, fmt.Errorf("certdir: admin crl: %w", err)
	}
	if added == 0 {
		return sexp.List(sexp.String("crl-duplicate")), nil
	}
	a.hist.Since(start)
	return sexp.List(
		sexp.String("crl-installed"),
		sexp.List(sexp.String("evicted"), sexp.String(strconv.Itoa(evicted))),
	), nil
}

// handleReload re-reads the daemon's CRL file via the wired callback;
// (reload-crl) with no callback is a clean error, not a 500.
func (a crlAdmin) handleReload(e sexp.Sexp) (sexp.Sexp, error) {
	if e.Tag() != "reload-crl" || e.Len() != 1 {
		return nil, fmt.Errorf("certdir: reload wants (reload-crl)")
	}
	if a.reload == nil {
		return nil, fmt.Errorf("certdir: no CRL file configured to reload")
	}
	added, total, evicted, err := a.reload()
	if err != nil {
		return nil, fmt.Errorf("certdir: reload: %w", err)
	}
	row := func(name string, v int) sexp.Sexp {
		return sexp.List(sexp.String(name), sexp.String(strconv.Itoa(v)))
	}
	return sexp.List(sexp.String("reloaded"),
		row("added", added), row("total", total), row("evicted", evicted)), nil
}

// handleCRLs serves the installed CRLs minus the ones the asking peer
// already holds: (crls <have-hash>...). CRLs are public, signed
// statements; serving them reveals nothing the signer did not already
// publish.
func (s *Service) handleCRLs(e sexp.Sexp) (sexp.Sexp, error) {
	if e.Tag() != "crls" {
		return nil, fmt.Errorf("certdir: crls wants (crls <have-hash>...)")
	}
	if s.Revocations == nil {
		// A directory without revocation state has nothing to serve;
		// answer empty so peers with CRLs enabled interoperate.
		return sexp.List(sexp.String("crls")), nil
	}
	have := make(map[[32]byte]bool, e.Len()-1)
	for i := 1; i < e.Len(); i++ {
		h := e.Nth(i)
		if !h.IsAtom() || len(h.Bytes()) != 32 {
			return nil, fmt.Errorf("certdir: crls hash %d is not a 32-byte atom", i)
		}
		var k [32]byte
		copy(k[:], h.Bytes())
		have[k] = true
	}
	kids := []sexp.Sexp{sexp.String("crls")}
	for _, rl := range s.Revocations.Lists() {
		if !have[rl.Hash()] {
			kids = append(kids, rl.Sexp())
		}
	}
	return sexp.List(kids...), nil
}

func (s *Service) statsSexp() sexp.Sexp {
	st := s.Store.Stats()
	row := func(name string, v int64) sexp.Sexp {
		return sexp.List(sexp.String(name), sexp.String(strconv.FormatInt(v, 10)))
	}
	kids := []sexp.Sexp{
		sexp.String("stats"),
		row("stored", int64(s.Store.Len())),
		row("published", st.Published),
		row("duplicates", st.Duplicates),
		row("rejected", st.Rejected),
		row("queries", st.Queries),
		row("removed", st.Removed),
		row("swept", st.Swept),
		row("evicted", st.Evicted),
		row("tombstones", st.Tombstones),
		row("wal-errors", st.WALErrors),
		row("events-emitted", int64(s.Store.Events().Emitted())),
	}
	if s.Revocations != nil {
		kids = append(kids, row("crls", int64(len(s.Revocations.Lists()))))
	}
	if s.Guard != nil {
		gs := s.Guard.Stats()
		kids = append(kids,
			row("ctl-authorized", gs.Authorized),
			row("ctl-denied", gs.Denied))
	}
	if ws, ok := s.Store.WALStats(); ok {
		kids = append(kids,
			row("wal-size-bytes", ws.SizeBytes),
			row("wal-appends", ws.Appends),
			row("wal-syncs", ws.Syncs),
			row("wal-compactions", ws.Compactions),
		)
	}
	if s.Replicator != nil {
		rs := s.Replicator.Stats()
		kids = append(kids,
			row("peers", int64(rs.Peers)),
			row("pushes", rs.Pushes),
			row("push-failures", rs.PushFailures),
			row("push-queue-drops", rs.QueueDrops),
			row("gossip-rounds", rs.Rounds),
			row("gossip-pulled", rs.Pulled),
			row("gossip-rejected", rs.PullRejected),
			row("gossip-round-errors", rs.RoundErrors),
			row("gossip-crls-pulled", rs.CRLsPulled),
			row("gossip-crls-rejected", rs.CRLsRejected),
			row("gossip-digest-bytes", rs.DigestBytes),
			row("gossip-descents", rs.Descents),
		)
	}
	return sexp.List(kids...)
}
