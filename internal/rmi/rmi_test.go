package rmi

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cert"
	"repro/internal/channel"
	"repro/internal/channel/local"
	"repro/internal/channel/plain"
	"repro/internal/channel/secure"
	"repro/internal/core"
	"repro/internal/principal"
	"repro/internal/prover"
	"repro/internal/sfkey"
	"repro/internal/tag"
)

// EchoService is the test remote object.
type EchoService struct {
	mu    sync.Mutex
	calls int
}

type EchoArgs struct{ Msg string }
type EchoReply struct {
	Msg   string
	Calls int
}

func (e *EchoService) Echo(args EchoArgs, reply *EchoReply) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.calls++
	reply.Msg = args.Msg
	reply.Calls = e.calls
	return nil
}

func (e *EchoService) Fail(args EchoArgs, reply *EchoReply) error {
	return &appError{msg: "application failure: " + args.Msg}
}

type appError struct{ msg string }

func (a *appError) Error() string { return a.msg }

// testWorld wires a protected server and an authorized client over a
// secure channel.
type testWorld struct {
	serverKey *sfkey.PrivateKey
	userKey   *sfkey.PrivateKey
	srv       *Server
	lis       channel.Listener
	addr      string
}

func newWorld(t *testing.T, grant tag.Tag) *testWorld {
	t.Helper()
	w := &testWorld{
		serverKey: sfkey.FromSeed([]byte("server-key")),
		userKey:   sfkey.FromSeed([]byte("user-key")),
	}
	w.srv = NewServer()
	issuer := principal.KeyOf(w.serverKey.Public())
	if err := w.srv.Register("echo", &EchoService{}, issuer, nil); err != nil {
		t.Fatal(err)
	}
	l, err := secure.Listen("127.0.0.1:0", &secure.Identity{Priv: w.serverKey})
	if err != nil {
		t.Fatal(err)
	}
	w.lis = l
	w.addr = l.Addr().String()
	go w.srv.Serve(l)
	t.Cleanup(func() { l.Close() })
	_ = grant
	return w
}

// authorizedClient builds a client whose prover holds a delegation
// from the server to the user key plus the user-key closure.
func (w *testWorld) authorizedClient(t *testing.T, grant tag.Tag) *Client {
	t.Helper()
	pv := prover.New()
	pv.AddClosure(prover.NewKeyClosure(w.userKey))
	issuer := principal.KeyOf(w.serverKey.Public())
	user := principal.KeyOf(w.userKey.Public())
	d, err := cert.Delegate(w.serverKey, user, issuer, grant, core.Forever)
	if err != nil {
		t.Fatal(err)
	}
	pv.AddProof(d)
	id, err := secure.NewIdentity()
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(secure.Dialer{ID: id}, w.addr, pv)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestProtectedCallWithChallengeFlow(t *testing.T) {
	grant := ObjectTag("echo")
	w := newWorld(t, grant)
	c := w.authorizedClient(t, grant)

	var reply EchoReply
	if err := c.Call("echo", "Echo", EchoArgs{Msg: "hi"}, &reply); err != nil {
		t.Fatal(err)
	}
	if reply.Msg != "hi" || reply.Calls != 1 {
		t.Fatalf("reply = %+v", reply)
	}
	st := c.Stats()
	if st.Challenges != 1 || st.Proofs != 1 || st.Retries != 1 {
		t.Fatalf("first call stats = %+v", st)
	}

	// Second call: the proof is cached at the server; no challenge.
	if err := c.Call("echo", "Echo", EchoArgs{Msg: "again"}, &reply); err != nil {
		t.Fatal(err)
	}
	if reply.Calls != 2 {
		t.Fatalf("calls = %d", reply.Calls)
	}
	if got := c.Stats().Challenges; got != 1 {
		t.Fatalf("second call challenged: %d", got)
	}
	ss := w.srv.Stats()
	if ss.ProofVerifies != 1 {
		t.Fatalf("server verified proofs %d times, want 1", ss.ProofVerifies)
	}
}

func TestUnauthorizedClientRejected(t *testing.T) {
	w := newWorld(t, ObjectTag("echo"))
	// Prover with a key the server never delegated to.
	pv := prover.New()
	pv.AddClosure(prover.NewKeyClosure(sfkey.FromSeed([]byte("stranger"))))
	id, _ := secure.NewIdentity()
	c, err := Dial(secure.Dialer{ID: id}, w.addr, pv)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var reply EchoReply
	err = c.Call("echo", "Echo", EchoArgs{Msg: "x"}, &reply)
	if err == nil {
		t.Fatal("unauthorized call succeeded")
	}
	if !strings.Contains(err.Error(), "cannot satisfy challenge") {
		t.Fatalf("err = %v", err)
	}
}

func TestRestrictedGrantScopesMethods(t *testing.T) {
	// Grant covers only the Echo method, not Fail.
	grant := MethodTag("echo", "Echo")
	w := newWorld(t, grant)
	c := w.authorizedClient(t, grant)
	var reply EchoReply
	if err := c.Call("echo", "Echo", EchoArgs{Msg: "ok"}, &reply); err != nil {
		t.Fatal(err)
	}
	if err := c.Call("echo", "Fail", EchoArgs{}, &reply); err == nil {
		t.Fatal("out-of-grant method authorized")
	}
}

func TestApplicationErrorPropagates(t *testing.T) {
	grant := ObjectTag("echo")
	w := newWorld(t, grant)
	c := w.authorizedClient(t, grant)
	var reply EchoReply
	err := c.Call("echo", "Fail", EchoArgs{Msg: "boom"}, &reply)
	if err == nil || !strings.Contains(err.Error(), "application failure: boom") {
		t.Fatalf("err = %v", err)
	}
}

func TestUnknownObjectAndMethod(t *testing.T) {
	grant := ObjectTag("echo")
	w := newWorld(t, grant)
	c := w.authorizedClient(t, grant)
	var reply EchoReply
	// After each error a good call on the same client must succeed:
	// the server discarded the argument value that followed the bad
	// header, so the stream stayed in step.
	good := func(msg string) {
		t.Helper()
		if err := c.Call("echo", "Echo", EchoArgs{Msg: msg}, &reply); err != nil {
			t.Fatalf("call after error: %v", err)
		}
		if reply.Msg != msg {
			t.Fatalf("reply = %+v, want %q", reply, msg)
		}
	}
	if err := c.Call("nosuch", "Echo", EchoArgs{Msg: "lost"}, &reply); err == nil {
		t.Fatal("unknown object succeeded")
	}
	good("after unknown object")
	if err := c.Call("echo", "NoSuch", EchoArgs{Msg: "lost"}, &reply); err == nil {
		t.Fatal("unknown method succeeded")
	}
	good("after unknown method")
}

func TestOpenObjectOverPlainChannel(t *testing.T) {
	srv := NewServer()
	if err := srv.RegisterOpen("echo", &EchoService{}); err != nil {
		t.Fatal(err)
	}
	l, err := plain.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go srv.Serve(l)
	c, err := Dial(plain.Dialer{}, l.Addr().String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var reply EchoReply
	if err := c.Call("echo", "Echo", EchoArgs{Msg: "plain"}, &reply); err != nil {
		t.Fatal(err)
	}
	if reply.Msg != "plain" {
		t.Fatalf("reply = %+v", reply)
	}
}

func TestProtectedObjectOverLocalChannel(t *testing.T) {
	// Colocated client and server: same trust structure, no
	// encryption on the path (section 5.2).
	host := local.NewHost()
	serverKey := sfkey.FromSeed([]byte("local-server"))
	userKey := sfkey.FromSeed([]byte("local-user"))
	chanKey := sfkey.FromSeed([]byte("local-chan"))

	srv := NewServer()
	issuer := principal.KeyOf(serverKey.Public())
	if err := srv.Register("echo", &EchoService{}, issuer, nil); err != nil {
		t.Fatal(err)
	}
	l, err := host.Listen("echo-svc", serverKey.Public())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go srv.Serve(l)

	pv := prover.New()
	pv.AddClosure(prover.NewKeyClosure(userKey))
	// The local channel key is controlled by the client too: its
	// closure lets the prover mint the chan->user link... but in the
	// standard flow the user key delegates to the channel key.
	user := principal.KeyOf(userKey.Public())
	d, err := cert.Delegate(serverKey, user, issuer, ObjectTag("echo"), core.Forever)
	if err != nil {
		t.Fatal(err)
	}
	pv.AddProof(d)

	c, err := Dial(local.Dialer{Host: host, Key: chanKey.Public()}, "echo-svc", pv)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var reply EchoReply
	if err := c.Call("echo", "Echo", EchoArgs{Msg: "colocated"}, &reply); err != nil {
		t.Fatal(err)
	}
	if reply.Msg != "colocated" {
		t.Fatalf("reply = %+v", reply)
	}
}

func TestQuotingGatewayFlow(t *testing.T) {
	// Database server S, gateway G, client C. The gateway calls S
	// quoting C; S demands a proof for "G-channel | C"; the gateway's
	// prover composes it from the client's grant.
	serverKey := sfkey.FromSeed([]byte("db-server"))
	gatewayKey := sfkey.FromSeed([]byte("gateway"))
	clientKey := sfkey.FromSeed([]byte("the-client"))
	sIss := principal.KeyOf(serverKey.Public())
	gP := principal.KeyOf(gatewayKey.Public())
	cP := principal.KeyOf(clientKey.Public())

	srv := NewServer()
	if err := srv.Register("echo", &EchoService{}, sIss, nil); err != nil {
		t.Fatal(err)
	}
	l, err := secure.Listen("127.0.0.1:0", &secure.Identity{Priv: serverKey})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go srv.Serve(l)

	// The client authorizes "G quoting C" using its own authority.
	sToC, err := cert.Delegate(serverKey, cP, sIss, ObjectTag("echo"), core.Forever)
	if err != nil {
		t.Fatal(err)
	}
	gQuotingC := principal.QuoteOf(gP, cP)
	cGrant, err := cert.Delegate(clientKey, gQuotingC, cP, ObjectTag("echo"), core.Forever)
	if err != nil {
		t.Fatal(err)
	}
	chain, err := core.NewTransitivity(cGrant, sToC)
	if err != nil {
		t.Fatal(err)
	}

	// Gateway prover: controls G, holds the client-provided chain.
	gpv := prover.New()
	gpv.AddClosure(prover.NewKeyClosure(gatewayKey))
	gpv.AddProof(chain)

	id, _ := secure.NewIdentity()
	gc, err := Dial(secure.Dialer{ID: id}, l.Addr().String(), gpv)
	if err != nil {
		t.Fatal(err)
	}
	defer gc.Close()

	var reply EchoReply
	if err := gc.CallQuoting(cP, "echo", "Echo", EchoArgs{Msg: "for C"}, &reply); err != nil {
		t.Fatalf("quoting call failed: %v", err)
	}
	if reply.Msg != "for C" {
		t.Fatalf("reply = %+v", reply)
	}

	// Without quoting, the gateway has no authority of its own.
	if err := gc.Call("echo", "Echo", EchoArgs{Msg: "as G"}, &reply); err == nil {
		t.Fatal("gateway authorized without quoting")
	}
}

func TestEstablishAuthorityUpFront(t *testing.T) {
	grant := ObjectTag("echo")
	w := newWorld(t, grant)
	c := w.authorizedClient(t, grant)
	// Pre-push authority: no challenge on first call.
	if err := c.EstablishAuthority(principal.KeyOf(w.userKey.Public()), grant, time.Hour); err != nil {
		t.Fatal(err)
	}
	// The delegation alone is not enough — the server must also walk
	// to its own issuer; the chain completes at challenge time if
	// needed, but here the full proof requires the server->user cert.
	var reply EchoReply
	if err := c.Call("echo", "Echo", EchoArgs{Msg: "pre"}, &reply); err != nil {
		t.Fatal(err)
	}
}

func TestExpiredDelegationRejected(t *testing.T) {
	w := newWorld(t, ObjectTag("echo"))
	pv := prover.New()
	pv.AddClosure(prover.NewKeyClosure(w.userKey))
	issuer := principal.KeyOf(w.serverKey.Public())
	user := principal.KeyOf(w.userKey.Public())
	expired, err := cert.Delegate(w.serverKey, user, issuer, ObjectTag("echo"),
		core.Until(time.Now().Add(-time.Hour)))
	if err != nil {
		t.Fatal(err)
	}
	pv.AddProof(expired)
	id, _ := secure.NewIdentity()
	c, err := Dial(secure.Dialer{ID: id}, w.addr, pv)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var reply EchoReply
	if err := c.Call("echo", "Echo", EchoArgs{}, &reply); err == nil {
		t.Fatal("expired delegation accepted")
	}
}

func TestRevokedCertificateRejected(t *testing.T) {
	w := newWorld(t, ObjectTag("echo"))
	// Build the delegation, then revoke it at the server.
	issuer := principal.KeyOf(w.serverKey.Public())
	user := principal.KeyOf(w.userKey.Public())
	d, err := cert.Delegate(w.serverKey, user, issuer, ObjectTag("echo"), core.Forever)
	if err != nil {
		t.Fatal(err)
	}
	store := cert.NewRevocationStore()
	if _, errs := store.Add(cert.NewRevocationList(w.serverKey, core.Forever, d.Hash())); errs[0] != nil {
		t.Fatal(errs[0])
	}
	w.srv.Revocations = store

	pv := prover.New()
	pv.AddClosure(prover.NewKeyClosure(w.userKey))
	pv.AddProof(d)
	id, _ := secure.NewIdentity()
	c, err := Dial(secure.Dialer{ID: id}, w.addr, pv)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var reply EchoReply
	if err := c.Call("echo", "Echo", EchoArgs{}, &reply); err == nil {
		t.Fatal("revoked delegation accepted")
	}
}

func TestForgetProofsForcesReverification(t *testing.T) {
	grant := ObjectTag("echo")
	w := newWorld(t, grant)
	c := w.authorizedClient(t, grant)
	var reply EchoReply
	if err := c.Call("echo", "Echo", EchoArgs{}, &reply); err != nil {
		t.Fatal(err)
	}
	w.srv.ForgetProofs()
	if err := c.Call("echo", "Echo", EchoArgs{}, &reply); err != nil {
		t.Fatal(err)
	}
	if got := w.srv.Stats().ProofVerifies; got != 2 {
		t.Fatalf("proof verifies = %d, want 2", got)
	}
}

func TestRegisterValidation(t *testing.T) {
	srv := NewServer()
	if err := srv.Register("x", &EchoService{}, nil, nil); err == nil {
		t.Fatal("protected object without issuer accepted")
	}
	type noMethods struct{}
	if err := srv.RegisterOpen("y", &noMethods{}); err == nil {
		t.Fatal("object with no methods accepted")
	}
	if err := srv.RegisterOpen("echo", &EchoService{}); err != nil {
		t.Fatal(err)
	}
	if err := srv.RegisterOpen("echo", &EchoService{}); err == nil {
		t.Fatal("duplicate registration accepted")
	}
}

func TestTagFuncSeesArguments(t *testing.T) {
	// A TagFunc that scopes authority per message content.
	serverKey := sfkey.FromSeed([]byte("tagfunc-server"))
	userKey := sfkey.FromSeed([]byte("tagfunc-user"))
	issuer := principal.KeyOf(serverKey.Public())
	srv := NewServer()
	tf := func(object, method string, args interface{}) tag.Tag {
		ea := args.(EchoArgs)
		return tag.ListOf(tag.Literal("echo"), tag.Literal(ea.Msg))
	}
	if err := srv.Register("echo", &EchoService{}, issuer, tf); err != nil {
		t.Fatal(err)
	}
	l, err := secure.Listen("127.0.0.1:0", &secure.Identity{Priv: serverKey})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go srv.Serve(l)

	pv := prover.New()
	pv.AddClosure(prover.NewKeyClosure(userKey))
	user := principal.KeyOf(userKey.Public())
	// Grant covers only messages "allowed".
	grant := tag.ListOf(tag.Literal("echo"), tag.Literal("allowed"))
	d, err := cert.Delegate(serverKey, user, issuer, grant, core.Forever)
	if err != nil {
		t.Fatal(err)
	}
	pv.AddProof(d)
	id, _ := secure.NewIdentity()
	c, err := Dial(secure.Dialer{ID: id}, l.Addr().String(), pv)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var reply EchoReply
	if err := c.Call("echo", "Echo", EchoArgs{Msg: "allowed"}, &reply); err != nil {
		t.Fatal(err)
	}
	if err := c.Call("echo", "Echo", EchoArgs{Msg: "forbidden"}, &reply); err == nil {
		t.Fatal("argument outside grant authorized")
	}
}

func TestConcurrentClients(t *testing.T) {
	grant := ObjectTag("echo")
	w := newWorld(t, grant)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := w.authorizedClient(t, grant)
			var reply EchoReply
			for j := 0; j < 5; j++ {
				if err := c.Call("echo", "Echo", EchoArgs{Msg: "par"}, &reply); err != nil {
					t.Errorf("call: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
