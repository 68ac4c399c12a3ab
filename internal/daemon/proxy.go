package daemon

import (
	"fmt"
	"html/template"
	"io"
	"maps"
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

// Proxy boots sf-proxy, the client-side authorizing HTTP proxy, from
// its argument list.
func Proxy(args []string) (n *Node, err error) {
	b, fs := newBoot("sf-proxy", false)
	defer b.finish(&err)
	addr := fs.String("addr", "127.0.0.1:3128", "proxy listen address")
	adminAddr := fs.String("admin-addr", "", "admin/metrics HTTP listen address (empty = disabled)")
	keyFile := fs.String("key", "", "user private key (created fresh when absent)")
	sweepEvery := fs.Duration("sweep", time.Minute, "prover expired-edge sweep interval (0 disables)")

	fs.Parse(args) // ExitOnError: an unparsable list never returns
	var priv *sfkey.PrivateKey
	if *keyFile != "" {
		if priv, err = sfkey.LoadPrivateKeyFile(*keyFile); err != nil {
			return nil, err
		}
	} else if priv, err = sfkey.Generate(); err != nil {
		return nil, err
	}
	rt, err := b.start()
	if err != nil {
		return nil, err
	}

	pv := prover.New()
	pv.AddClosure(prover.NewKeyClosure(priv))
	p := &proxy{
		priv:   priv,
		pv:     pv,
		client: httpauth.NewClient(pv, principal.KeyOf(priv.Public())),
	}
	// The proxy's prover lives as long as the process and digests
	// every imported delegation; the runtime sweeps its expired
	// edges on a timer so the graph tracks the live delegation set.
	rt.Every(*sweepEvery, func() { pv.Sweep(time.Now()) })
	rt.Metrics().Register(server.ProverCollector(pv))

	if n, err = b.serve(*addr, p, *adminAddr); err == nil {
		rt.Printf("listening on %s; UI at http://%s/ (user %s)", n.Addr, uiHost, priv.Public().Fingerprint())
	}
	return n, err
}

// proxy wraps the authorizing client with history and a delegation UI.
type proxy struct {
	mu      sync.Mutex
	priv    *sfkey.PrivateKey
	pv      *prover.Prover
	client  *httpauth.Client
	history []string
}

const uiHost = "security.localhost"

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
	out.Header = r.Header.Clone()
	out.Header.Del("Proxy-Connection")
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
	maps.Copy(w.Header(), resp.Header)
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
