// Package gateway is the quoting protocol gateway of paper section
// 6.3: an HTML-over-HTTP front end to the relational email database.
// The gateway holds no authority of its own over mailboxes. It quotes
// each client in its RMI requests, so the database server — which
// sees the full chain "gateway-channel quoting client speaks for
// database" — makes the real access-control decision. A correct
// gateway only needs to quote faithfully; it never duplicates the
// database's checks.
//
// The gateway spans all four boundaries of section 2: administrative
// domains (client and database need share no account database),
// network scale (its database link may be a secure channel or a
// colocated local channel), abstraction (it renders mailbox views
// over relational rows), and protocol (HTTP in front, RMI behind).
package gateway

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/admit"
	"repro/internal/emaildb"
	"repro/internal/httpauth"
	"repro/internal/obs"
	"repro/internal/principal"
	"repro/internal/prover"
	"repro/internal/rmi"
	"repro/internal/sfkey"
	"repro/internal/tag"
)

// Gateway bridges HTTP clients to the RMI email database. It is the
// quoting adapter over the admission pipeline: the embedded Pipeline
// carries the cache, clock and audit log and verifies the two
// artifacts a client presents; the gateway extracts them from the
// Authorization header, digests the delegation, and forwards.
type Gateway struct {
	*admit.Pipeline
	// Key is the gateway's own key (G).
	Key *sfkey.PrivateKey
	// DB is the RMI client for the database server; its prover must
	// be Prover below. Each request's forward holds a channel of its
	// own for its whole exchange, a cold admit's proof search
	// included, so requests never queue behind one another here, and
	// a channel that breaks is replaced by a fresh dial.
	DB *rmi.Client
	// DBIssuer is the principal controlling the database (S).
	DBIssuer principal.Principal
	// Prover holds the gateway closure and digests client grants.
	Prover *prover.Prover

	// Obs, when set, records one "gateway.admit" span per request —
	// the root of a cold admit's trace tree, continued across the RMI
	// hop and the prover's directory lookups via the Sf-Trace header.
	Obs *obs.Recorder
	// ColdAdmit / WarmAdmit, when set, observe end-to-end admit
	// seconds: cold when the request carried a delegation proof to
	// digest or its own forward sent the prover to a directory, warm
	// when admission rode cached state alone.
	ColdAdmit *obs.Histogram
	WarmAdmit *obs.Histogram

	mu    sync.Mutex
	stats Stats
}

// maxRequestBody bounds how much of a client request body the gateway
// reads for request hashing; gateway operations are small form posts,
// so 1 MiB is generous headroom rather than an invitation to balloon
// the process.
const maxRequestBody = 1 << 20

// Stats counts gateway work.
type Stats struct {
	Requests   int
	Challenges int
	Digested   int
	Forwarded  int
	Denied     int
}

// New wires a gateway around its key and database connection. The
// supplied prover must hold the gateway key's closure (use NewProver).
func New(key *sfkey.PrivateKey, db *rmi.Client, dbIssuer principal.Principal, pv *prover.Prover) *Gateway {
	return &Gateway{Pipeline: admit.New("gateway"), Key: key, DB: db, DBIssuer: dbIssuer, Prover: pv}
}

// NewProver builds the prover a gateway needs: its own key closure.
func NewProver(key *sfkey.PrivateKey) *prover.Prover {
	pv := prover.New()
	pv.AddClosure(prover.NewKeyClosure(key))
	return pv
}

// Stats returns a copy of the counters.
func (g *Gateway) Stats() Stats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.stats
}

// dbOp describes the database call derived from an HTTP request.
type dbOp struct {
	owner  string
	folder string
	op     string // select | update
	id     int64
}

// parseOp maps URLs to database operations:
//
//	GET  /mail?owner=alice&folder=inbox   -> select
//	POST /markread?owner=alice&id=3      -> update
func parseOp(r *http.Request) (dbOp, error) {
	q := r.URL.Query()
	op := dbOp{owner: q.Get("owner"), folder: q.Get("folder")}
	if op.owner == "" {
		return op, fmt.Errorf("gateway: missing owner parameter")
	}
	switch {
	case r.Method == http.MethodGet && r.URL.Path == "/mail":
		op.op = "select"
	case r.Method == http.MethodPost && r.URL.Path == "/markread":
		op.op = "update"
		id, err := strconv.ParseInt(q.Get("id"), 10, 64)
		if err != nil {
			return op, fmt.Errorf("gateway: bad id: %w", err)
		}
		op.id = id
	default:
		return op, fmt.Errorf("gateway: no such endpoint %s %s", r.Method, r.URL.Path)
	}
	return op, nil
}

// ServeHTTP implements the gateway protocol of section 6.3.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	ctx := r.Context()
	var span *obs.ActiveSpan
	if g.Obs != nil {
		ctx, span = g.Obs.StartFromHeader(ctx, r.Header.Get(obs.TraceHeader), "gateway.admit")
		defer span.End()
	}
	// Opened before anything is verified: the audit record carries the
	// revocation epoch in force now (the churn soak test leans on that
	// attribution to tell an in-flight race from a genuinely stale
	// admit).
	attempt := g.Begin(r.Method+" "+r.URL.Path, span.TraceID())
	g.mu.Lock()
	g.stats.Requests++
	g.mu.Unlock()

	op, err := parseOp(r)
	if err != nil {
		span.Fail(err)
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	minTag := emaildb.OpTag(op.owner, op.op)
	span.SetAttr("tag", minTag.String())

	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBody))
	if err != nil {
		span.Fail(err)
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, "gateway: request body too large", http.StatusRequestEntityTooLarge)
		} else {
			http.Error(w, "gateway: bad request body", http.StatusBadRequest)
		}
		return
	}
	reqPrin := httpauth.ServerRequestPrincipal(r, body)
	attempt.For(reqPrin, minTag)
	span.SetAttr("principal", reqPrin.String())

	auth := r.Header.Get("Authorization")
	if auth == "" {
		attempt.Challenge("no authorization header")
		g.challenge(w, minTag)
		return
	}

	deny := func(err error) {
		g.mu.Lock()
		g.stats.Denied++
		g.mu.Unlock()
		span.Fail(err)
		attempt.Deny(err)
		http.Error(w, err.Error(), http.StatusForbidden)
	}
	client, cold, err := g.admit(&attempt, auth, reqPrin)
	if err != nil {
		deny(err)
		return
	}
	attempt.For(client, minTag)
	span.SetAttr("client", client.String())

	// Forward over RMI, quoting the client. The database, not the
	// gateway, decides whether the quoted client may touch the
	// mailbox.
	g.mu.Lock()
	g.stats.Forwarded++
	g.mu.Unlock()
	ctx, queries := prover.WithQueryTally(ctx)
	switch op.op {
	case "select":
		var reply emaildb.SelectReply
		err = g.DB.CallQuotingCtx(ctx, client, emaildb.ObjectName, "Select",
			emaildb.SelectArgs{Owner: op.owner, Folder: op.folder}, &reply)
		if err != nil {
			deny(err)
			return
		}
		renderMailbox(w, op.owner, reply.Msgs)
	case "update":
		var reply emaildb.MarkReadReply
		err = g.DB.CallQuotingCtx(ctx, client, emaildb.ObjectName, "MarkRead",
			emaildb.MarkReadArgs{Owner: op.owner, ID: op.id}, &reply)
		if err != nil {
			deny(err)
			return
		}
		fmt.Fprintf(w, "marked %d message(s) read\n", reply.Updated)
	}

	// Admitted end to end. Cold when the client handed over a
	// delegation to digest or this request's forward drove the prover
	// to a directory; warm when cached state carried the whole request.
	cold = cold || queries.Load() > 0
	if cold {
		g.ColdAdmit.Since(start)
	} else {
		g.WarmAdmit.Since(start)
	}
	attempt.Admit(!cold)
}

// challenge sends the 401 naming the database issuer S, the minimum
// tag, and the compound subject template "G quoting ?" — the
// pseudo-principal shortcut that saves a round trip to discover the
// client's identity (section 6.3).
func (g *Gateway) challenge(w http.ResponseWriter, minTag tag.Tag) {
	g.mu.Lock()
	g.stats.Challenges++
	g.mu.Unlock()
	template := principal.QuoteOf(principal.KeyOf(g.Key.Public()), principal.Pseudo{})
	w.Header().Set("WWW-Authenticate", httpauth.SchemeProof)
	w.Header().Set(httpauth.HdrServiceIssuer, string(g.DBIssuer.Sexp().Transport()))
	w.Header().Set(httpauth.HdrMinimumTag, string(minTag.Sexp().Transport()))
	w.Header().Set(httpauth.HdrSubjectTemplate, string(template.Sexp().Transport()))
	http.Error(w, "401 Unauthorized: delegate to the gateway quoting you", http.StatusUnauthorized)
}

// admit checks the two artifacts the client supplies (section 6.3):
// the signed request showing R => C, and the delegation proof showing
// (G quoting C) speaks for the database, which the gateway digests
// into its prover for the RMI invoker to use. Both are cited in the
// attempt's audit record; cold reports that a delegation was digested.
func (g *Gateway) admit(attempt *admit.Attempt, auth string, reqPrin principal.Hash) (client principal.Principal, cold bool, err error) {
	scheme, params := httpauth.ParseAuthHeader(auth)
	if scheme != httpauth.SchemeProof {
		return nil, false, fmt.Errorf("gateway: unsupported scheme %q", scheme)
	}
	rpRaw, ok := params["request-proof"]
	if !ok {
		return nil, false, fmt.Errorf("gateway: missing signed request")
	}
	rp, err := g.Verify([]byte(rpRaw))
	if err != nil {
		return nil, false, fmt.Errorf("gateway: request proof: %w", err)
	}
	concl := rp.Conclusion()
	if !principal.Equal(concl.Subject, reqPrin) {
		return nil, false, fmt.Errorf("gateway: signed request does not match this request")
	}
	if !concl.Validity.Contains(g.Now()) {
		return nil, false, fmt.Errorf("gateway: signed request expired")
	}
	attempt.Cite(rp)

	if pRaw, ok := params["proof"]; ok {
		p, err := g.Verify([]byte(pRaw))
		if err != nil {
			return nil, false, fmt.Errorf("gateway: delegation proof: %w", err)
		}
		// Graph hygiene is the daemon's job: sf-gateway sweeps the
		// prover on a timer through the shared runtime.
		g.Prover.AddProof(p)
		cold = true
		attempt.Cite(p)
		g.mu.Lock()
		g.stats.Digested++
		g.mu.Unlock()
	}
	return concl.Issuer, cold, nil
}

// renderMailbox builds the HTML view — the abstraction boundary: an
// email view assembled from relational rows. The page is appended into
// one buffer and written once. Its bytes are those of the html/template
// page in mailbox_test.go, for every input: text is escaped as that
// template escapes the text and <title> contexts (appendHTML); IDs,
// counts and dates are digits, '-', ':' and spaces, which it leaves
// as they are.
func renderMailbox(w http.ResponseWriter, owner string, msgs []emaildb.Message) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	b := make([]byte, 0, 512+128*len(msgs))
	b = append(b, "<!DOCTYPE html>\n<html><head><title>"...)
	b = appendHTML(b, owner)
	b = append(b, "'s mail</title></head><body>\n<h1>Mailbox: "...)
	b = appendHTML(b, owner)
	b = append(b, "</h1>\n<table border=\"1\">\n"+
		"<tr><th>ID</th><th>From</th><th>Subject</th><th>Date</th><th>Read</th></tr>\n"...)
	for _, m := range msgs {
		b = append(b, "<tr><td>"...)
		b = strconv.AppendInt(b, m.ID, 10)
		b = append(b, "</td><td>"...)
		b = appendHTML(b, m.From)
		b = append(b, "</td><td>"...)
		b = appendHTML(b, m.Subject)
		b = append(b, "</td><td>"...)
		b = m.Date.AppendFormat(b, "2006-01-02 15:04")
		if m.Read {
			b = append(b, "</td><td>yes</td></tr>\n"...)
		} else {
			b = append(b, "</td><td>no</td></tr>\n"...)
		}
	}
	b = append(b, "</table>\n<p>"...)
	b = strconv.AppendInt(b, int64(len(msgs)), 10)
	b = append(b, " message(s). Rendered by the Snowflake quoting gateway.</p>\n</body></html>"...)
	w.Write(b)
}

// appendHTML appends s escaped as html/template escapes text and
// RCDATA: six characters become entities, NUL becomes U+FFFD, and
// every other byte is copied verbatim, invalid UTF-8 included. All
// seven are ASCII, so a byte loop finds exactly the runes html/template
// replaces (a range over s would rewrite invalid bytes as U+FFFD).
func appendHTML(b []byte, s string) []byte {
	done := 0
	for i := 0; i < len(s); i++ {
		var esc string
		switch s[i] {
		case 0:
			esc = "\uFFFD"
		case '"':
			esc = "&#34;"
		case '&':
			esc = "&amp;"
		case '\'':
			esc = "&#39;"
		case '+':
			esc = "&#43;"
		case '<':
			esc = "&lt;"
		case '>':
			esc = "&gt;"
		default:
			continue
		}
		b = append(b, s[done:i]...)
		b = append(b, esc...)
		done = i + 1
	}
	return append(b, s[done:]...)
}
