package rmi

import (
	"net"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/cert"
	"repro/internal/channel"
	"repro/internal/channel/secure"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/principal"
	"repro/internal/prover"
	"repro/internal/sfkey"
)

// countedConn counts transport writes into n, before issuing each.
type countedConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countedConn) Write(p []byte) (int, error) {
	c.n.Add(1)
	return c.Conn.Write(p)
}

// countingDialer opens secure channels over counted TCP connections.
type countingDialer struct {
	id     *secure.Identity
	writes atomic.Int64
}

func (d *countingDialer) Dial(addr string) (channel.Conn, error) {
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return secure.Client(countedConn{raw, &d.writes}, d.id)
}

// countingListener accepts secure channels over counted TCP
// connections.
type countingListener struct {
	net.Listener
	id     *secure.Identity
	writes atomic.Int64
}

func (l *countingListener) Accept() (channel.Conn, error) {
	raw, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return secure.Server(countedConn{raw, &l.writes}, l.id)
}

// protectedEcho serves the echo object, guarded by the server key, on
// a counted secure listener, and dials it with a client holding a
// delegation to its channel key. The first call, which files the
// proof, has been made.
func protectedEcho(t *testing.T) (srv *Server, c *Client, l *countingListener, d *countingDialer) {
	t.Helper()
	serverKey := sfkey.FromSeed([]byte("record-server"))
	issuer := principal.KeyOf(serverKey.Public())
	srv = NewServer()
	srv.Cache = core.NewProofCache(64)
	srv.Audit = obs.NewAuditLog(64)
	if err := srv.Register("echo", &EchoService{}, issuer, nil); err != nil {
		t.Fatal(err)
	}
	tl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l = &countingListener{Listener: tl, id: &secure.Identity{Priv: serverKey}}
	go srv.Serve(l)
	t.Cleanup(func() { l.Close() })

	d = &countingDialer{id: secure.IdentityFromSeed("record-client")}
	pv := prover.New()
	pv.AddClosure(prover.NewKeyClosure(d.id.Priv))
	deleg, err := cert.Delegate(serverKey, principal.KeyOf(d.id.Priv.Public()), issuer, ObjectTag("echo"), core.Forever)
	if err != nil {
		t.Fatal(err)
	}
	pv.AddProof(deleg)
	if c, err = Dial(d, tl.Addr().String(), pv); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	var reply EchoReply
	if err := c.Call("echo", "Echo", EchoArgs{Msg: "file"}, &reply); err != nil {
		t.Fatal(err)
	}
	return srv, c, l, d
}

// A call over the secure channel is one record, hence one transport
// write, each way.
func TestCallIsOneTransportWriteEachWay(t *testing.T) {
	_, c, l, d := protectedEcho(t)
	for i := 0; i < 3; i++ {
		sent, replied := d.writes.Load(), l.writes.Load()
		var reply EchoReply
		if err := c.Call("echo", "Echo", EchoArgs{Msg: "warm"}, &reply); err != nil {
			t.Fatal(err)
		}
		if n := d.writes.Load() - sent; n != 1 {
			t.Errorf("call %d: client made %d transport writes, want 1", i, n)
		}
		if n := l.writes.Load() - replied; n != 1 {
			t.Errorf("call %d: server made %d transport writes, want 1", i, n)
		}
	}
}

// An admit on a filed proof cites that proof's leaves, hashed when it
// was filed; once the proofs are forgotten, nothing is cited until a
// proof is filed again.
func TestAdmitCitesFiledProof(t *testing.T) {
	srv, c, _, d := protectedEcho(t)
	speaker := principal.KeyOf(d.id.Priv.Public())
	filed := srv.Filed(speaker)
	if len(filed) != 1 {
		t.Fatalf("%d proofs on file, want 1", len(filed))
	}
	want := core.LeafHashes(filed[0])
	if len(want) == 0 {
		t.Fatal("filed proof has no leaves")
	}
	var reply EchoReply
	if err := c.Call("echo", "Echo", EchoArgs{Msg: "warm"}, &reply); err != nil {
		t.Fatal(err)
	}
	last := srv.Audit.Recent(1)[0]
	if last.Verdict != obs.VerdictAdmit || !slices.Equal(last.CertHashes, want) {
		t.Fatalf("warm admit: %s citing %v, want admit citing %v", last.Verdict, last.CertHashes, want)
	}

	srv.ForgetProofs()
	if n := len(srv.Filed(speaker)); n != 0 {
		t.Fatalf("%d proofs on file after ForgetProofs", n)
	}
	if err := c.Call("echo", "Echo", EchoArgs{Msg: "refile"}, &reply); err != nil {
		t.Fatal(err)
	}
	recent := srv.Audit.Recent(2)
	if recent[0].Verdict != obs.VerdictChallenge || len(recent[0].CertHashes) != 0 {
		t.Fatalf("after ForgetProofs: %s citing %v, want a challenge citing nothing", recent[0].Verdict, recent[0].CertHashes)
	}
	if recent[1].Verdict != obs.VerdictAdmit || !slices.Equal(recent[1].CertHashes, want) {
		t.Fatalf("refiled admit: %s citing %v, want admit citing %v", recent[1].Verdict, recent[1].CertHashes, want)
	}
}
