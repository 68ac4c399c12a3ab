package gateway

import (
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/emaildb"
	"repro/internal/obs"
	"repro/internal/principal"
	"repro/internal/sfkey"
)

// heldMail is the email service with a gate in front of one owner's
// Select: the call reaches the database and waits there until the
// test opens the gate.
type heldMail struct {
	*emaildb.Service
	owner   string
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (h *heldMail) Select(args emaildb.SelectArgs, reply *emaildb.SelectReply) error {
	if h.armed.Load() && args.Owner == h.owner {
		close(h.entered)
		<-h.release
	}
	return h.Service.Select(args, reply)
}

// TestOverlappingAdmitsClassifiedApart: a warm request that is still
// in flight while another request discovers its chain is warm, and
// the discovering one is cold. Each request counts only the directory
// queries made on its own behalf, not the process-wide tally.
func TestOverlappingAdmitsClassifiedApart(t *testing.T) {
	held := &heldMail{owner: "bob", entered: make(chan struct{}), release: make(chan struct{})}
	w := newTracedMeshServing(t, func(svc *emaildb.Service) interface{} {
		held.Service = svc
		return held
	})
	bobKey := sfkey.FromSeed([]byte("trace-bob"))
	bob := principal.KeyOf(bobKey.Public())
	gwPrin := principal.KeyOf(w.gwKey.Public())
	for _, u := range []struct {
		key   *sfkey.PrivateKey
		prin  principal.Principal
		owner string
	}{{w.aliceKey, w.alice, "alice"}, {bobKey, bob, "bob"}} {
		grant, err := cert.Delegate(w.dbKey, u.prin, w.dbIssuer, emaildb.OwnerTag(u.owner), core.Forever)
		if err != nil {
			t.Fatal(err)
		}
		handoff, err := cert.Delegate(u.key, principal.QuoteOf(gwPrin, u.prin), u.prin, emaildb.OwnerTag(u.owner), core.Forever)
		if err != nil {
			t.Fatal(err)
		}
		w.publish(t, grant)
		w.publish(t, handoff)
	}
	get := func(key *sfkey.PrivateKey, owner string) error {
		req := signedRequestBy(t, key, owner, http.MethodGet, w.gwHTTP.URL+"/mail?owner="+owner+"&folder=inbox")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			return &httpError{resp.StatusCode, string(body)}
		}
		return nil
	}

	// Bob's chain is discovered once, so his next request is warm.
	if err := get(bobKey, "bob"); err != nil {
		t.Fatal(err)
	}
	_, _, cold0 := w.cold.Snapshot()
	_, _, warm0 := w.warm.Snapshot()
	if q := w.pv.Stats().RemoteQueries; cold0 != 1 || warm0 != 0 || q == 0 {
		t.Fatalf("bob's first admit: cold %d warm %d after %d queries, want one cold admit", cold0, warm0, q)
	}

	// Bob's warm request waits inside the database while Alice's
	// request discovers her chain and completes.
	held.armed.Store(true)
	bobDone := make(chan error, 1)
	go func() { bobDone <- get(bobKey, "bob") }()
	select {
	case <-held.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("bob's request never reached the database")
	}
	before := w.pv.Stats().RemoteQueries
	if err := get(w.aliceKey, "alice"); err != nil {
		t.Fatalf("alice's request, beside bob's held one: %v", err)
	}
	if w.pv.Stats().RemoteQueries == before {
		t.Fatal("alice's admit made no directory query; the test needs it to discover")
	}
	close(held.release)
	if err := <-bobDone; err != nil {
		t.Fatalf("bob's held request: %v", err)
	}

	_, _, cold := w.cold.Snapshot()
	_, _, warm := w.warm.Snapshot()
	if cold-cold0 != 1 || warm-warm0 != 1 {
		t.Fatalf("overlapping admits: %d cold, %d warm; want exactly one of each", cold-cold0, warm-warm0)
	}
	hits := map[string]bool{}
	for _, d := range w.gwAudit.Recent(10) {
		if d.Verdict == obs.VerdictAdmit {
			hits[d.Principal] = d.CacheHit // the latest record per principal wins
		}
	}
	if hits[w.alice.String()] || !hits[bob.String()] {
		t.Fatalf("audit cache hits = %v, want alice cold and bob warm", hits)
	}
}

type httpError struct {
	status int
	body   string
}

func (e *httpError) Error() string {
	return "status " + http.StatusText(e.status) + ": " + strings.TrimSpace(e.body)
}
