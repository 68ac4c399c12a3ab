// Command sf-proxy is the client-side authorizing HTTP proxy of paper
// section 5.3.5: it forwards each browser request to the origin
// server, answers Snowflake challenges from its Prover, and serves an
// HTML user interface at http://security.localhost/ for creating
// keys, importing delegations, and delegating authority over
// recently visited pages.
//
// Usage:
//
//	sf-proxy -addr 127.0.0.1:3128 [-key user.key] [-admin-addr 127.0.0.1:3129]
//
// The proxy holds a long-lived prover (imported delegations, minted
// shortcuts); -sweep evicts its expired edges on a timer through the
// shared server runtime. -admin-addr serves /metrics.
package main

import (
	"flag"
	"fmt"
	"html/template"
	"io"
	"log"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/httpauth"
	"repro/internal/principal"
	"repro/internal/prover"
	"repro/internal/server"
	"repro/internal/sexp"
	"repro/internal/sfkey"
	"repro/internal/tag"
)

// proxy wraps the authorizing client with history and a delegation UI.
type proxy struct {
	mu      sync.Mutex
	priv    *sfkey.PrivateKey
	pv      *prover.Prover
	client  *httpauth.Client
	history []string
}

const uiHost = "security.localhost"

func main() {
	addr := flag.String("addr", "127.0.0.1:3128", "proxy listen address")
	adminAddr := flag.String("admin-addr", "", "admin/metrics HTTP listen address (empty = disabled)")
	keyFile := flag.String("key", "", "user private key (created fresh when absent)")
	sweepEvery := flag.Duration("sweep", time.Minute, "prover expired-edge sweep interval (0 disables)")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	flag.Parse()

	var priv *sfkey.PrivateKey
	var err error
	if *keyFile != "" {
		if priv, err = sfkey.LoadPrivateKeyFile(*keyFile); err != nil {
			log.Fatalf("sf-proxy: %v", err)
		}
	} else if priv, err = sfkey.Generate(); err != nil {
		log.Fatalf("sf-proxy: %v", err)
	}

	rt := server.New("sf-proxy")
	if rt.Logger, err = server.NewLogger(*logFormat); err != nil {
		log.Fatalf("sf-proxy: %v", err)
	}

	pv := prover.New()
	pv.AddClosure(prover.NewKeyClosure(priv))
	p := &proxy{
		priv:   priv,
		pv:     pv,
		client: httpauth.NewClient(pv, principal.KeyOf(priv.Public())),
	}
	// The proxy's prover lives as long as the process and digests every
	// imported delegation; the runtime sweeps its expired edges on a
	// timer so the graph tracks the live delegation set.
	rt.Every(*sweepEvery, func() { pv.Sweep(time.Now()) })
	rt.Metrics().Register(server.ProofCacheCollector(core.SharedProofCache()))
	rt.Metrics().Register(server.ProverCollector(pv))

	bound, err := rt.Serve(*addr, p)
	if err != nil {
		log.Fatalf("sf-proxy: %v", err)
	}
	if _, err := rt.ServeAdmin(*adminAddr); err != nil {
		log.Fatalf("sf-proxy: %v", err)
	}
	rt.Printf("listening on %s; UI at http://%s/ (user %s)",
		bound, uiHost, priv.Public().Fingerprint())
	if err := rt.Wait(); err != nil {
		log.Fatalf("sf-proxy: %v", err)
	}
}

// ServeHTTP dispatches between the UI virtual host and forwarding.
func (p *proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Host == uiHost || strings.HasPrefix(r.Host, uiHost+":") {
		p.serveUI(w, r)
		return
	}
	p.forward(w, r)
}

// forward relays a browser request through the authorizing client.
func (p *proxy) forward(w http.ResponseWriter, r *http.Request) {
	url := r.URL.String()
	if !strings.HasPrefix(url, "http") {
		url = "http://" + r.Host + r.URL.String()
	}
	out, err := http.NewRequest(r.Method, url, r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	for k, vs := range r.Header {
		if k == "Proxy-Connection" {
			continue
		}
		for _, v := range vs {
			out.Header.Add(k, v)
		}
	}
	resp, err := p.client.Do(out)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	p.mu.Lock()
	if len(p.history) == 0 || p.history[len(p.history)-1] != url {
		p.history = append(p.history, url)
		if len(p.history) > 50 {
			p.history = p.history[1:]
		}
	}
	p.mu.Unlock()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

var uiTmpl = template.Must(template.New("ui").Parse(`<!DOCTYPE html>
<html><head><title>Snowflake proxy</title></head><body>
<h1>Snowflake authorizing proxy</h1>
<p>User principal fingerprint: <code>{{.Fingerprint}}</code></p>
<h2>Recently visited</h2>
<ul>{{range .History}}<li>{{.}} — <a href="/delegate?url={{.}}">delegate</a></li>{{end}}</ul>
<h2>Import a delegation</h2>
<form method="POST" action="/import">
<textarea name="cert" rows="4" cols="80" placeholder="{transport-encoded certificate}"></textarea>
<input type="submit" value="Import">
</form>
<h2>Delegate</h2>
<form method="POST" action="/delegate">
URL prefix: <input name="prefix" size="40">
Recipient principal (S-expression): <input name="recipient" size="60">
<input type="submit" value="Create delegation">
</form>
</body></html>`))

// serveUI implements the http://security.localhost/ interface.
func (p *proxy) serveUI(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == "/" || r.URL.Path == "/delegate" && r.Method == http.MethodGet:
		p.mu.Lock()
		hist := append([]string(nil), p.history...)
		p.mu.Unlock()
		uiTmpl.Execute(w, struct {
			Fingerprint string
			History     []string
		}{p.priv.Public().Fingerprint(), hist})
	case r.URL.Path == "/import" && r.Method == http.MethodPost:
		raw := strings.TrimSpace(r.FormValue("cert"))
		proof, err := core.ParseProof([]byte(raw))
		if err != nil {
			http.Error(w, "bad certificate: "+err.Error(), http.StatusBadRequest)
			return
		}
		// A pasted delegation carries no authority until its chain
		// verifies: the prover must not digest a forged one.
		ctx := core.NewVerifyContext()
		ctx.Now = time.Now()
		if err := cert.VerifyChain(ctx, proof); err != nil {
			http.Error(w, "certificate does not verify: "+err.Error(), http.StatusBadRequest)
			return
		}
		p.pv.AddProof(proof)
		fmt.Fprintf(w, "imported: %s\n", proof.Conclusion())
	case r.URL.Path == "/delegate" && r.Method == http.MethodPost:
		p.handleDelegate(w, r)
	default:
		http.NotFound(w, r)
	}
}

// handleDelegate creates the "HTML snippet" of section 5.3.5: a link
// carrying both the user's delegation and the proof the user needed.
func (p *proxy) handleDelegate(w http.ResponseWriter, r *http.Request) {
	prefix := r.FormValue("prefix")
	recipS := r.FormValue("recipient")
	if prefix == "" || recipS == "" {
		http.Error(w, "prefix and recipient required", http.StatusBadRequest)
		return
	}
	re, err := sexp.ParseOne([]byte(recipS))
	if err != nil {
		http.Error(w, "bad recipient: "+err.Error(), http.StatusBadRequest)
		return
	}
	recipient, err := principal.FromSexp(re)
	if err != nil {
		http.Error(w, "bad recipient: "+err.Error(), http.StatusBadRequest)
		return
	}
	grant := tag.ListOf(
		tag.Literal("web"),
		tag.ListOf(tag.Literal("method"), tag.Literal("GET")),
		tag.ListOf(tag.Literal("service"), tag.All()),
		tag.ListOf(tag.Literal("resourcePath"), tag.Prefix(prefix)),
	)
	proof, err := p.pv.Delegate(principal.KeyOf(p.priv.Public()), recipient, grant,
		core.Until(time.Now().Add(7*24*time.Hour)))
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprintf(w, `<p>Deliver this snippet to the recipient:</p>
<pre>&lt;a href=%q data-sf-delegation=%q&gt;shared: %s&lt;/a&gt;</pre>`,
		prefix, proof.Sexp().Transport(), template.HTMLEscapeString(prefix))
}
