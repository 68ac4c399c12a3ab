package httpauth

import (
	"net/http"
	"sync"
	"time"

	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/principal"
	"repro/internal/sfkey"
	"repro/internal/tag"
)

// Server document authentication (paper section 5.3.3): "the server
// includes with document headers a proof that the hash of the
// document speaks for the server. The client completes the proof
// chain and determines whether the authentication is satisfactory."

// DocTag is the restriction under which a document hash speaks for
// the server: (tag (web-doc "/path")).
func DocTag(path string) tag.Tag {
	return tag.ListOf(tag.Literal("web-doc"), tag.Literal(path))
}

// docProofTTL bounds each document proof's validity.
const docProofTTL = time.Hour

// DocSigner wraps a handler and attaches a document proof to every
// successful response. With CacheCerts set, the signature for a given
// (path, body) is minted once and reused — the "cache" bars of
// Figure 8's server-authentication group; without it every response
// pays a fresh signature — the "sign" bars.
type DocSigner struct {
	Priv    *sfkey.PrivateKey
	Handler http.Handler
	// CacheCerts reuses signatures for unchanged documents.
	CacheCerts bool
	// Clock for validity windows; nil means time.Now.
	Clock func() time.Time

	mu    sync.Mutex
	cache map[string]string // path+bodyhash -> proof header value
	stats DocSignerStats
}

// DocSignerStats counts signing work.
type DocSignerStats struct {
	Responses int
	Signs     int
	CacheHits int
}

// NewDocSigner wraps a handler.
func NewDocSigner(priv *sfkey.PrivateKey, h http.Handler) *DocSigner {
	return &DocSigner{Priv: priv, Handler: h, cache: make(map[string]string)}
}

// Stats returns a copy of the counters.
func (d *DocSigner) Stats() DocSignerStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// ServeHTTP buffers the inner response and attaches the proof header.
func (d *DocSigner) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := &responseRecorder{header: make(http.Header), status: http.StatusOK}
	d.Handler.ServeHTTP(rec, r)
	d.mu.Lock()
	d.stats.Responses++
	d.mu.Unlock()
	if rec.status == http.StatusOK {
		if hdr, err := d.proofFor(r.URL.Path, rec.body); err == nil {
			w.Header().Set(HdrDocProof, hdr)
		}
	}
	for k, vs := range rec.header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(rec.status)
	w.Write(rec.body)
}

func (d *DocSigner) proofFor(path string, body []byte) (string, error) {
	docPrin := principal.HashOfBytes(body)
	key := path + "\x00" + docPrin.Key()
	d.mu.Lock()
	if d.CacheCerts {
		if hdr, ok := d.cache[key]; ok {
			d.stats.CacheHits++
			d.mu.Unlock()
			return hdr, nil
		}
	}
	d.mu.Unlock()

	now := time.Now()
	if d.Clock != nil {
		now = d.Clock()
	}
	c, err := cert.Sign(d.Priv, core.SpeaksFor{
		Subject:  docPrin,
		Issuer:   principal.KeyOf(d.Priv.Public()),
		Tag:      DocTag(path),
		Validity: core.Between(now.Add(-time.Minute), now.Add(docProofTTL)),
	})
	if err != nil {
		return "", err
	}
	hdr := string(c.Sexp().Transport())
	d.mu.Lock()
	d.stats.Signs++
	if d.CacheCerts {
		d.cache[key] = hdr
	}
	d.mu.Unlock()
	return hdr, nil
}

// responseRecorder buffers a handler's response.
type responseRecorder struct {
	header http.Header
	body   []byte
	status int
}

func (r *responseRecorder) Header() http.Header { return r.header }
func (r *responseRecorder) Write(b []byte) (int, error) {
	r.body = append(r.body, b...)
	return len(b), nil
}
func (r *responseRecorder) WriteHeader(status int) { r.status = status }
