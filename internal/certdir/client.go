package certdir

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/httpauth"
	"repro/internal/obs"
	"repro/internal/principal"
	"repro/internal/sexp"
	"repro/internal/tag"
)

// Client talks the directory wire protocol. Its ByIssuerForCtx and
// BySubjectForCtx methods satisfy prover.RemoteSource, so a client
// plugs straight into Prover.AddRemote for remote chain discovery.
//
// Build one with NewClient: it owns a connection pool sized for the
// prover's fan-out, which queries, the events long polls and the
// snapshot stream share. A Client written as a literal works, but falls
// back to http.DefaultClient, whose two idle connections per host make
// a wide discovery round re-dial. Time bounds come from contexts, not
// from a client Timeout: roundTrip gives every request/reply a deadline
// so a dead directory cannot wedge a prover, and a snapshot runs under
// its caller's context.
type Client struct {
	// BaseURL is the directory root, e.g. "http://host:8360".
	BaseURL string
	// Ctl, when set, signs every mutating request (publish, remove,
	// admin endpoints — the paths CtlTagFor names) with a speaks-for
	// proof for the directory's operator principal, as an enforcing
	// directory (Service.Guard) demands. Read-only requests are never
	// signed. Nil talks the open protocol.
	Ctl *httpauth.CtlSigner

	// gossipBytes, when set (NewReplicator wires it), accumulates the
	// digest bytes this client moves — request plus reply on the
	// anti-entropy summary paths, the traffic two already-converged
	// peers keep exchanging forever. Fetch payloads are excluded: they
	// are paid only for actual differences. The
	// sf_gossip_digest_bytes_total metric reads it. Atomic because a
	// client shared by several replicators is wired by one while
	// another's loops already use it.
	gossipBytes atomic.Pointer[atomic.Int64]

	hc *http.Client // NewClient's pooled client; nil means http.DefaultClient
}

// digestPath reports whether a path carries anti-entropy summary
// traffic, the class gossipBytes meters.
func digestPath(path string) bool {
	switch path {
	case PathGossipRoot, PathGossipNodes, PathGossipLeaves:
		return true
	}
	return false
}

// Connection pool of a NewClient client. A prover asks a directory up
// to prover.DefaultRemoteFanout (32) questions at once, beside a held
// events long poll; the pool keeps twice that idle per host, so a
// discovery round reuses its connections instead of dialling most of
// them again.
const (
	poolIdlePerHost = 64
	poolIdle        = 256
	poolIdleTimeout = 90 * time.Second
)

// NewClient returns a client for the directory at baseURL with its own
// connection pool. Otherwise the transport matches
// http.DefaultTransport (proxy from the environment, dial and TLS
// handshake timeouts, HTTP/2 when offered).
func NewClient(baseURL string) *Client {
	tr := &http.Transport{
		Proxy: http.ProxyFromEnvironment,
		DialContext: (&net.Dialer{
			Timeout:   30 * time.Second,
			KeepAlive: 30 * time.Second,
		}).DialContext,
		ForceAttemptHTTP2:     true,
		MaxIdleConns:          poolIdle,
		MaxIdleConnsPerHost:   poolIdlePerHost,
		IdleConnTimeout:       poolIdleTimeout,
		TLSHandshakeTimeout:   10 * time.Second,
		ExpectContinueTimeout: 1 * time.Second,
	}
	return &Client{BaseURL: strings.TrimRight(baseURL, "/"), hc: &http.Client{Transport: tr}}
}

func (c *Client) httpClient() *http.Client {
	if c.hc != nil {
		return c.hc
	}
	return http.DefaultClient
}

// requestTimeout bounds one request/reply exchange beyond any time the
// request itself asks the directory to wait.
const requestTimeout = 5 * time.Second

// roundTrip posts one S-expression and parses the one in the reply.
// It honors ctx for cancellation, bounds the exchange at wait plus
// requestTimeout (wait is nonzero only for the events long poll), and,
// when ctx carries an active obs span, forwards the trace as the
// Sf-Trace header so the directory's span joins the caller's trace.
// Replies are read up to the parser's own input bound (a query answer
// aggregates many certificates, so it is far larger than any single
// request); beyond that the reply is refused rather than silently
// truncated.
func (c *Client) roundTrip(ctx context.Context, path string, req sexp.Sexp, wait time.Duration) (sexp.Sexp, error) {
	ctx, cancel := context.WithTimeout(ctx, wait+requestTimeout)
	defer cancel()
	body := req.Canonical()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+path, bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("certdir: %s: %w", path, err)
	}
	hreq.Header.Set("Content-Type", "text/plain")
	if tr := obs.Inject(ctx); tr != "" {
		hreq.Header.Set(obs.TraceHeader, tr)
	}
	if c.Ctl != nil {
		if ctl := CtlTagFor(path); ctl.Valid() {
			if err := c.Ctl.Sign(hreq, body, ctl); err != nil {
				return nil, fmt.Errorf("certdir: %s: %w", path, err)
			}
		}
	}
	resp, err := c.httpClient().Do(hreq)
	if err != nil {
		return nil, fmt.Errorf("certdir: %s: %w", path, err)
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(io.LimitReader(resp.Body, sexp.MaxTotal+1))
	if err != nil {
		return nil, fmt.Errorf("certdir: %s: %w", path, err)
	}
	if len(reply) > sexp.MaxTotal {
		return nil, fmt.Errorf("certdir: %s: reply exceeds %d bytes", path, sexp.MaxTotal)
	}
	if n := c.gossipBytes.Load(); n != nil && digestPath(path) {
		n.Add(int64(len(body) + len(reply)))
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("certdir: %s: status %d: %s", path, resp.StatusCode, strings.TrimSpace(string(reply)))
	}
	e, err := sexp.ParseOne(reply)
	if err != nil {
		return nil, fmt.Errorf("certdir: %s: bad reply: %w", path, err)
	}
	return e, nil
}

// Publish uploads one certificate to the directory. The directory
// answers (published) or (duplicate), both of which are success, and
// refuses a certificate that does not verify with a 400.
func (c *Client) Publish(ct *cert.Cert) error {
	resp, err := c.roundTrip(context.Background(), PathPublish, ct.Sexp(), 0)
	if err != nil {
		return err
	}
	switch resp.Tag() {
	case "published", "duplicate":
		return nil
	}
	return fmt.Errorf("certdir: unexpected publish reply %s", resp)
}

// query runs one (query <by> <principal> [clauses]) round trip and
// returns the certificates as candidate proofs. The (limit n) and
// (tag t) clauses are sent only when f sets them.
func (c *Client) query(ctx context.Context, by string, p principal.Principal, f QueryFilter) ([]core.Proof, error) {
	req := []sexp.Sexp{sexp.String("query"), sexp.String(by), p.Sexp()}
	if f.Limit > 0 {
		req = append(req, sexp.List(sexp.String("limit"), sexp.String(strconv.Itoa(f.Limit))))
	}
	if f.Tag.Valid() {
		req = append(req, f.Tag.Sexp())
	}
	resp, err := c.roundTrip(ctx, PathQuery, sexp.List(req...), 0)
	if err != nil {
		return nil, err
	}
	certs, err := parseCerts(resp)
	if err != nil {
		return nil, err
	}
	out := make([]core.Proof, len(certs))
	for i, ct := range certs {
		out[i] = ct
	}
	return out, nil
}

// parseCerts decodes a (certs <proof>...) list: a query or fetch
// reply.
func parseCerts(e sexp.Sexp) ([]*cert.Cert, error) {
	if e.Tag() != "certs" {
		return nil, fmt.Errorf("certdir: want (certs <proof>...), got %s", e)
	}
	out := make([]*cert.Cert, 0, e.Len()-1)
	for i := 1; i < e.Len(); i++ {
		ct, err := certFromSexp(e.Nth(i))
		if err != nil {
			return nil, fmt.Errorf("certdir: certificate %d: %w", i, err)
		}
		out = append(out, ct)
	}
	return out, nil
}

// certFromSexp decodes a proof expression that must be a signed
// certificate — the only proof form a directory stores, journals or
// serves. The signature is not checked here.
func certFromSexp(e sexp.Sexp) (*cert.Cert, error) {
	p, err := core.ProofFromSexp(e)
	if err != nil {
		return nil, err
	}
	ct, ok := p.(*cert.Cert)
	if !ok {
		return nil, fmt.Errorf("want a signed certificate, not %T", p)
	}
	return ct, nil
}

// Remove retracts the certificate with the given body hash, reporting
// whether the directory held it.
func (c *Client) Remove(hash []byte) (bool, error) {
	resp, err := c.roundTrip(context.Background(), PathRemove,
		sexp.List(sexp.String("remove"), sexp.Atom(hash)), 0)
	if err != nil {
		return false, err
	}
	return resp.Tag() == "removed", nil
}

// PushCRL installs a CRL through the admin endpoint of a directory or
// of any daemon serving AdminHandler. Duplicates are acknowledged
// idempotently, like Publish.
func (c *Client) PushCRL(rl *cert.RevocationList) error {
	resp, err := c.roundTrip(context.Background(), PathAdminCRL, rl.Sexp(), 0)
	if err != nil {
		return err
	}
	switch resp.Tag() {
	case "crl-installed", "crl-duplicate":
		return nil
	}
	return fmt.Errorf("certdir: unexpected crl reply %s", resp)
}

// ReloadCRLs asks the daemon to re-read its CRL file (the admin reload
// endpoint), returning how many lists were newly installed.
func (c *Client) ReloadCRLs() (added int, err error) {
	resp, err := c.roundTrip(context.Background(), PathReload, sexp.List(sexp.String("reload-crl")), 0)
	if err != nil {
		return 0, err
	}
	if resp.Tag() != "reloaded" {
		return 0, fmt.Errorf("certdir: unexpected reload reply %s", resp)
	}
	if a := resp.Child("added"); a != nil && a.Len() == 2 {
		added, _ = strconv.Atoi(a.Nth(1).Text())
	}
	return added, nil
}

// FollowInvalidations follows the directory's remove and revoke
// records until ctx ends, on the same loop as Replicator and
// CRLFollower: hold bounds each poll (zero or less means the
// directory's cap), a failed poll is retried after a second, and the
// first poll replays the retained tail. apply gets each answer's
// certificate body hashes to invalidate, and reset — true when the
// stream could not be served continuously (the follower lagged past
// the retained tail or the directory restarted), in which case the
// caller must invalidate coarsely. The signature is primitive-typed on
// purpose: it is what prover.InvalidationSource requires, so this
// client satisfies it structurally without the prover importing
// certdir.
func (c *Client) FollowInvalidations(ctx context.Context, hold time.Duration, apply func(hashes [][]byte, reset bool)) {
	streamFollower{client: c, kinds: []string{EventRemove, EventRevoke}, hold: hold, apply: func(_ bool, b streamBatch) {
		apply(b.invalidations(), b.reset)
	}}.run(ctx)
}

// follow polls the events stream once. The certificates and lists in
// an answer come from a possibly hostile directory: the caller
// verifies each before applying it (Store.indexVerified and
// InstallCRLs do).
func (c *Client) follow(ctx context.Context, q eventsRequest) (streamBatch, error) {
	resp, err := c.roundTrip(ctx, PathEvents, q.sexp(), max(q.wait, 0))
	if err != nil {
		return streamBatch{}, err
	}
	return decodeEventsReply(resp)
}

// decodeEventsReply decodes (events (next <n>) [(id <hex>)] [(reset)]
// [(more)] (ev <kind> <hash>|<cert>|<crl>)...), keeping the rows in
// order. Rows it does not know are skipped, and so is an id that is
// not a store id (validStoreID).
func decodeEventsReply(resp sexp.Sexp) (r streamBatch, err error) {
	nx := resp.Child("next")
	if resp.Tag() != "events" || nx == nil || nx.Len() != 2 {
		return r, fmt.Errorf("certdir: unexpected events reply %s", resp)
	}
	if r.next, err = strconv.ParseUint(nx.Nth(1).Text(), 10, 64); err != nil {
		return streamBatch{}, fmt.Errorf("certdir: bad events cursor: %w", err)
	}
	for i := 1; i < resp.Len(); i++ {
		row := resp.Nth(i)
		switch {
		case row.Tag() == "reset":
			r.reset = true
		case row.Tag() == "more":
			r.more = true
		case row.Tag() == "id":
			if row.Len() == 2 && row.Nth(1).IsAtom() && validStoreID(row.Nth(1).Bytes()) {
				r.id = row.Nth(1).Text()
			}
		case row.Tag() != "ev":
		case row.Len() == 3 && row.Nth(1).Text() == EventCRL:
			rl, err := cert.RevocationListFromSexp(row.Nth(2))
			if err != nil {
				return streamBatch{}, fmt.Errorf("certdir: event crl %d: %w", i, err)
			}
			r.rows = append(r.rows, streamRow{Event: Event{Kind: EventCRL}, crl: rl})
		case row.Len() == 3 && row.Nth(1).Text() == EventPublish:
			c, err := certFromSexp(row.Nth(2))
			if err != nil {
				return streamBatch{}, fmt.Errorf("certdir: event publish %d: %w", i, err)
			}
			r.rows = append(r.rows, streamRow{Event: Event{Kind: EventPublish}, cert: c})
		case row.Len() == 3 && row.Nth(2).IsAtom():
			r.rows = append(r.rows, streamRow{Event: Event{Kind: row.Nth(1).Text(), Hash: append([]byte(nil), row.Nth(2).Bytes()...)}})
		default:
			return streamBatch{}, fmt.Errorf("certdir: bad event row %s", row)
		}
	}
	return r, nil
}

// Fetch pulls the certificates with the given content hashes; absent
// or expired ones are omitted from the answer. The caller re-verifies
// everything before trusting it (Store.indexVerified does when pulling).
func (c *Client) Fetch(hashes [][]byte) ([]*cert.Cert, error) {
	kids := make([]sexp.Sexp, 0, len(hashes)+1)
	kids = append(kids, sexp.String("fetch"))
	for _, h := range hashes {
		kids = append(kids, sexp.Atom(h))
	}
	resp, err := c.roundTrip(context.Background(), PathFetch, sexp.List(kids...), 0)
	if err != nil {
		return nil, err
	}
	return parseCerts(resp)
}

// MerkleRoot fetches the peer's Merkle root summary and tree shape
// (leaf count and arity, which the puller checks against its own
// before descending).
func (c *Client) MerkleRoot() (root MerkleSummary, leaves, arity int, err error) {
	resp, err := c.roundTrip(context.Background(), PathGossipRoot, sexp.List(sexp.String("mroot")), 0)
	if err != nil {
		return root, 0, 0, err
	}
	pr := resp.Child("params")
	sm := resp.Child("sum")
	if resp.Tag() != "mroot" || pr == nil || pr.Len() != 3 || sm == nil || sm.Len() != 3 || !sm.Nth(2).IsAtom() {
		return root, 0, 0, fmt.Errorf("certdir: bad root reply %s", resp)
	}
	var e1, e2, e3 error
	leaves, e1 = strconv.Atoi(pr.Nth(1).Text())
	arity, e2 = strconv.Atoi(pr.Nth(2).Text())
	root.Count, e3 = strconv.Atoi(sm.Nth(1).Text())
	if e1 != nil || e2 != nil || e3 != nil || root.Count < 0 || len(sm.Nth(2).Bytes()) != MerkleSumBytes {
		return MerkleSummary{}, 0, 0, fmt.Errorf("certdir: bad root reply %s", resp)
	}
	copy(root.XOR[:], sm.Nth(2).Bytes())
	return root, leaves, arity, nil
}

// MerkleNodes fetches the peer's summaries for the given tree-node
// indexes (one descent step).
func (c *Client) MerkleNodes(idxs []int) ([]MerkleSummary, error) {
	kids := make([]sexp.Sexp, 0, len(idxs)+1)
	kids = append(kids, sexp.String("mnodes"))
	for _, n := range idxs {
		kids = append(kids, sexp.String(strconv.Itoa(n)))
	}
	resp, err := c.roundTrip(context.Background(), PathGossipNodes, sexp.List(kids...), 0)
	if err != nil {
		return nil, err
	}
	if resp.Tag() != "mnodes" {
		return nil, fmt.Errorf("certdir: unexpected nodes reply %s", resp)
	}
	out := make([]MerkleSummary, 0, resp.Len()-1)
	for i := 1; i < resp.Len(); i++ {
		row := resp.Nth(i)
		if row.Tag() != "sum" || row.Len() != 4 || !row.Nth(3).IsAtom() {
			return nil, fmt.Errorf("certdir: bad node row %s", row)
		}
		idx, err1 := strconv.Atoi(row.Nth(1).Text())
		n, err2 := strconv.Atoi(row.Nth(2).Text())
		if err1 != nil || err2 != nil || idx < 0 || idx >= MerkleNodeCount || len(row.Nth(3).Bytes()) != MerkleSumBytes {
			return nil, fmt.Errorf("certdir: bad node row %s", row)
		}
		m := MerkleSummary{Index: idx, Count: n}
		copy(m.XOR[:], row.Nth(3).Bytes())
		out = append(out, m)
	}
	return out, nil
}

// MerkleLeafHashes fetches the full content-hash lists of the given
// leaves (leaf-array indexes), the terminal step of a descent.
func (c *Client) MerkleLeafHashes(leaves []int) (map[int][][]byte, error) {
	kids := make([]sexp.Sexp, 0, len(leaves)+1)
	kids = append(kids, sexp.String("mleaves"))
	for _, lf := range leaves {
		kids = append(kids, sexp.String(strconv.Itoa(lf)))
	}
	resp, err := c.roundTrip(context.Background(), PathGossipLeaves, sexp.List(kids...), 0)
	if err != nil {
		return nil, err
	}
	if resp.Tag() != "mleaves" {
		return nil, fmt.Errorf("certdir: unexpected leaves reply %s", resp)
	}
	out := make(map[int][][]byte, len(leaves))
	for i := 1; i < resp.Len(); i++ {
		row := resp.Nth(i)
		if row.Tag() != "leaf" || row.Len() < 2 || !row.Nth(1).IsAtom() {
			return nil, fmt.Errorf("certdir: bad leaf row %s", row)
		}
		lf, err := strconv.Atoi(row.Nth(1).Text())
		if err != nil || lf < 0 || lf >= MerkleLeaves {
			return nil, fmt.Errorf("certdir: bad leaf index %q", row.Nth(1).Text())
		}
		hs := make([][]byte, 0, row.Len()-2)
		for j := 2; j < row.Len(); j++ {
			h := row.Nth(j)
			if !h.IsAtom() {
				return nil, fmt.Errorf("certdir: leaf %d hash %d is not an atom", lf, j)
			}
			hs = append(hs, append([]byte(nil), h.Bytes()...))
		}
		out[lf] = hs
	}
	return out, nil
}

// Snapshot opens the peer's bootstrap snapshot stream (snapshot.go
// documents the format); the caller reads it to the end and closes it.
// The transfer is bulk — sized by the peer's whole store — so it gets
// no requestTimeout: ctx alone bounds it.
func (c *Client) Snapshot(ctx context.Context) (io.ReadCloser, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+PathSnapshot, nil)
	if err != nil {
		return nil, fmt.Errorf("certdir: snapshot: %w", err)
	}
	resp, err := c.httpClient().Do(hreq)
	if err != nil {
		return nil, fmt.Errorf("certdir: snapshot: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		resp.Body.Close()
		return nil, fmt.Errorf("certdir: snapshot: status %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	return resp.Body, nil
}

// ByIssuerForCtx implements prover.RemoteSource: the prover pushes the
// tag it is searching for and its fetch cap down to the directory,
// which applies them before shipping, so a heavy issuer's irrelevant
// delegations never cross the wire; ctx carries the search's trace and
// cancellation.
func (c *Client) ByIssuerForCtx(ctx context.Context, p principal.Principal, want tag.Tag, limit int) ([]core.Proof, error) {
	return c.query(ctx, "issuer", p, QueryFilter{Limit: limit, Tag: want})
}

// BySubjectForCtx implements prover.RemoteSource.
func (c *Client) BySubjectForCtx(ctx context.Context, p principal.Principal, want tag.Tag, limit int) ([]core.Proof, error) {
	return c.query(ctx, "subject", p, QueryFilter{Limit: limit, Tag: want})
}

// ByIssuer returns every live certificate issued by p, unfiltered and
// unbounded. The prover never asks this; it remains because the
// benchmark's timing decorator calls it.
func (c *Client) ByIssuer(p principal.Principal) ([]core.Proof, error) {
	return c.query(context.Background(), "issuer", p, QueryFilter{})
}

// BySubject is ByIssuer's subject-side counterpart, kept for the same
// reason.
func (c *Client) BySubject(p principal.Principal) ([]core.Proof, error) {
	return c.query(context.Background(), "subject", p, QueryFilter{})
}
