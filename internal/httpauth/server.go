package httpauth

import (
	"bytes"
	"context"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/principal"
	"repro/internal/tag"
)

// Mapper maps a request to the single principal that controls the
// requested resource and the minimum restriction set required to
// authorize it (the abstract ProtectedServlet methods of section
// 5.3.4). Note there is no ACL: the client is responsible for knowing
// and exploiting its group memberships as represented in delegations.
type Mapper func(r *http.Request) (issuer principal.Principal, minTag tag.Tag, err error)

// Protected wraps an http.Handler with Snowflake authorization: the
// Go analog of ProtectedServlet (section 5.3.4). It is the HTTP
// transport adapter over the admission pipeline: the embedded Pipeline
// carries the cache, clock, revocation store and audit log and makes
// every decision; Protected reads the request, the Authorization
// header and the MAC table, and writes the 401 or 403.
type Protected struct {
	*admit.Pipeline
	// Service names this service in request tags.
	Service string
	// Map supplies issuer and minimum restriction per request.
	Map Mapper
	// Handler is the service implementation, invoked only after
	// authorization succeeds. The authorized request principal is
	// exposed via FromContext-style header Sf-Authorized-Subject.
	Handler http.Handler

	// Obs, when set, records one "httpauth.check" span per request,
	// continuing the trace named by the Sf-Trace request header.
	Obs *obs.Recorder

	mu    sync.Mutex
	macs  map[string]*macSecret // MAC key id -> state
	stats ServerStats
}

// maxRequestBody bounds the request body Protected reads to hash the
// request; like the gateway, certdir and CtlGuard, it refuses a larger
// body with 413 rather than buffering it.
const maxRequestBody = 1 << 20

// ServerStats counts server-side protocol work.
type ServerStats struct {
	Requests      int
	Challenges    int
	ProofVerifies int
	CacheHits     int
	MACVerifies   int
	MACEstablish  int
	Denied        int
}

type macSecret struct {
	secret []byte
	prin   principal.MAC
}

// NewProtected builds a protected handler.
func NewProtected(service string, m Mapper, h http.Handler) *Protected {
	return &Protected{
		Pipeline: admit.New("httpauth"),
		Service:  service,
		Map:      m,
		Handler:  h,
		macs:     make(map[string]*macSecret),
	}
}

// Stats returns a copy of the counters.
func (p *Protected) Stats() ServerStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// count applies one counter update under the stats lock.
func (p *Protected) count(f func(*ServerStats)) {
	p.mu.Lock()
	f(&p.stats)
	p.mu.Unlock()
}

// ServeHTTP implements the protocol: authorize or challenge.
func (p *Protected) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var span *obs.ActiveSpan
	if p.Obs != nil {
		var ctx context.Context
		ctx, span = p.Obs.StartFromHeader(r.Context(), r.Header.Get(obs.TraceHeader), "httpauth.check")
		defer span.End()
		r = r.WithContext(ctx)
	}
	attempt := p.Begin(r.Method+" "+r.URL.Path, span.TraceID())
	p.count(func(s *ServerStats) { s.Requests++ })

	issuer, minTag, err := p.Map(r)
	if err != nil {
		span.Fail(err)
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}

	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBody))
	if err != nil {
		span.Fail(err)
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, "httpauth: request body too large", http.StatusRequestEntityTooLarge)
		} else {
			http.Error(w, "httpauth: bad request body", http.StatusBadRequest)
		}
		return
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	reqPrin := ServerRequestPrincipal(r, body)
	reqTag := RequestTag(r.Method, p.Service, r.URL.Path)
	attempt.For(reqPrin, reqTag)
	span.SetAttr("principal", reqPrin.String())
	span.SetAttr("tag", reqTag.String())

	auth := r.Header.Get("Authorization")
	if auth == "" {
		attempt.Challenge("no authorization header")
		p.challenge(w, issuer, minTag)
		return
	}
	var proof core.Proof
	var reused bool
	scheme, params := parseAuthHeader(auth)
	switch scheme {
	case SchemeProof:
		proof, err = p.authorizeProof(params, reqPrin, issuer, reqTag)
	case SchemeMAC:
		proof, err = p.authorizeMAC(r, params, reqPrin, issuer, reqTag)
		reused = err == nil // admit chained through a proof on file
	default:
		err = fmt.Errorf("httpauth: unsupported scheme %q", scheme)
	}
	if err != nil {
		p.count(func(s *ServerStats) { s.Denied++ })
		span.Fail(err)
		attempt.Deny(err)
		// "403 Forbidden" indicates authorization failure after a
		// challenge was answered (section 5.3).
		http.Error(w, err.Error(), http.StatusForbidden)
		return
	}
	attempt.Cite(proof)
	attempt.Admit(reused)

	// MAC establishment rides on any authorized request.
	if eph := r.Header.Get(HdrMACEstablish); eph != "" {
		if err := p.establishMAC(w, eph); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
	}
	r.Header.Set("Sf-Authorized-Subject", reqPrin.String())
	p.Handler.ServeHTTP(w, r)
}

// challenge emits the 401 of Figure 5.
func (p *Protected) challenge(w http.ResponseWriter, issuer principal.Principal, minTag tag.Tag) {
	p.mu.Lock()
	p.stats.Challenges++
	p.mu.Unlock()
	w.Header().Set("WWW-Authenticate", SchemeProof)
	w.Header().Set(HdrServiceIssuer, string(issuer.Sexp().Transport()))
	w.Header().Set(HdrMinimumTag, string(minTag.Sexp().Transport()))
	http.Error(w, "401 Unauthorized: Snowflake proof required", http.StatusUnauthorized)
}

// authorizeProof handles Authorization: SnowflakeProof proof={...}.
// The proof's subject must be the hash of this very request (or, for
// gateways, the compound principal that signed request hash chains
// to).
func (p *Protected) authorizeProof(params map[string]string, reqPrin principal.Hash, issuer principal.Principal, reqTag tag.Tag) (core.Proof, error) {
	raw, ok := params["proof"]
	if !ok {
		return nil, fmt.Errorf("httpauth: missing proof parameter")
	}
	p.count(func(s *ServerStats) { s.ProofVerifies++ })
	return p.Authorize([]byte(raw), reqPrin, issuer, reqTag)
}

// authorizeMAC handles Authorization: SnowflakeMAC keyid=..., mac=...:
// verify the HMAC over the request hash (establishing the local
// assumption "request speaks for MAC principal"), then chain through
// the proof on file for the MAC principal.
func (p *Protected) authorizeMAC(r *http.Request, params map[string]string, reqPrin principal.Hash, issuer principal.Principal, reqTag tag.Tag) (core.Proof, error) {
	keyID, mac := params["keyid"], params["mac"]
	if keyID == "" || mac == "" {
		return nil, fmt.Errorf("httpauth: missing keyid or mac")
	}
	p.mu.Lock()
	ms, ok := p.macs[keyID]
	if ok {
		p.stats.MACVerifies++
	}
	p.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("httpauth: unknown MAC key")
	}
	if !verifyMAC(ms.secret, reqPrin.Digest, mac) {
		return nil, fmt.Errorf("httpauth: MAC verification failed")
	}
	// A proof for the MAC principal may ride along on this request; it
	// is filed only if it verifies on its own, with no request-local
	// assumptions.
	if raw := r.Header.Get(HdrProof); raw != "" {
		p.count(func(s *ServerStats) { s.ProofVerifies++ })
		_ = p.Submit([]byte(raw))
	}
	// Local assumption witnessed by the HMAC check: this request
	// speaks for the MAC principal.
	link := core.SpeaksFor{Subject: reqPrin, Issuer: ms.prin, Tag: tag.All()}
	for _, stored := range p.Filed(ms.prin) {
		chain, err := core.NewTransitivity(core.Assume(link), stored)
		if err != nil {
			continue
		}
		if p.AuthorizeProof(chain, reqPrin, issuer, reqTag, link) == nil {
			p.count(func(s *ServerStats) { s.CacheHits++ })
			return chain, nil
		}
	}
	return nil, &core.AuthError{Issuer: issuer, MinTag: reqTag, Reason: "no proof on file for MAC principal"}
}

// establishMAC answers the amortization handshake: generate a secret,
// encrypt it to the client's ephemeral X25519 key, and return key id,
// server ephemeral, and ciphertext in response headers.
func (p *Protected) establishMAC(w http.ResponseWriter, clientEphB64 string) error {
	clientEph, err := base64.StdEncoding.DecodeString(clientEphB64)
	if err != nil {
		return fmt.Errorf("httpauth: bad MAC establish key: %w", err)
	}
	secret, serverEphPub, sealed, err := sealSecret(clientEph)
	if err != nil {
		return err
	}
	mp := principal.MACOf(secret)
	keyID := hex.EncodeToString(mp.KeyHash[:8])
	p.mu.Lock()
	p.macs[keyID] = &macSecret{secret: secret, prin: mp}
	p.stats.MACEstablish++
	p.mu.Unlock()
	w.Header().Set(HdrMACKeyID, keyID)
	w.Header().Set(HdrMACServerEph, base64.StdEncoding.EncodeToString(serverEphPub))
	w.Header().Set(HdrMACSecret, base64.StdEncoding.EncodeToString(sealed))
	return nil
}

// computeMAC/verifyMAC authenticate a request hash under the shared
// secret.
func computeMAC(secret, reqHash []byte) string {
	m := hmac.New(sha256.New, secret)
	m.Write(reqHash)
	return base64.StdEncoding.EncodeToString(m.Sum(nil))
}

func verifyMAC(secret, reqHash []byte, macB64 string) bool {
	want, err := base64.StdEncoding.DecodeString(macB64)
	if err != nil {
		return false
	}
	m := hmac.New(sha256.New, secret)
	m.Write(reqHash)
	return hmac.Equal(m.Sum(nil), want)
}
