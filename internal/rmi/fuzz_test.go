package rmi

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/cert"
	"repro/internal/channel/local"
	"repro/internal/core"
	"repro/internal/principal"
	"repro/internal/prover"
	"repro/internal/sfkey"
)

// guardedCounter is a protected object that counts its runs, and the
// runs made while its server had no proof on file for the channel key
// that every caller in the fuzz speaks with.
type guardedCounter struct {
	srv       *Server
	peer      principal.Principal
	runs      int
	unguarded int
}

type CountArgs struct{ By int }
type CountReply struct{ Runs int }

func (g *guardedCounter) Inc(args CountArgs, reply *CountReply) error {
	g.runs++
	if len(g.srv.Filed(g.peer)) == 0 {
		g.unguarded++
	}
	reply.Runs = g.runs
	return nil
}

// replayConn is a server's end of a channel whose peer, authenticated
// as key peer, sent the bytes of r and hung up. Replies are discarded.
type replayConn struct {
	r    io.Reader
	peer sfkey.PublicKey
}

func (c *replayConn) Read(p []byte) (int, error)     { return c.r.Read(p) }
func (*replayConn) Write(p []byte) (int, error)      { return len(p), nil }
func (*replayConn) Close() error                     { return nil }
func (c *replayConn) PeerKey() sfkey.PublicKey       { return c.peer }
func (*replayConn) LocalKey() sfkey.PublicKey        { return sfkey.PublicKey{} }
func (*replayConn) Kind() string                     { return principal.ChannelLocal }
func (*replayConn) LocalAddr() net.Addr              { return &net.UnixAddr{Name: "replay"} }
func (*replayConn) RemoteAddr() net.Addr             { return &net.UnixAddr{Name: "replay"} }
func (*replayConn) SetDeadline(time.Time) error      { return nil }
func (*replayConn) SetReadDeadline(time.Time) error  { return nil }
func (*replayConn) SetWriteDeadline(time.Time) error { return nil }
func (c *replayConn) Principal() principal.Channel {
	return principal.ChannelOf(principal.ChannelLocal, nil)
}

var (
	fuzzServerKey = sfkey.FromSeed([]byte("fuzz-rmi-server"))
	fuzzChanKey   = sfkey.FromSeed([]byte("fuzz-rmi-channel"))
)

// newFuzzServer registers a guarded counter owned by fuzzServerKey.
func newFuzzServer(t testing.TB) (*Server, *guardedCounter) {
	t.Helper()
	srv := NewServer()
	ctr := &guardedCounter{srv: srv, peer: principal.KeyOf(fuzzChanKey.Public())}
	if err := srv.Register("counter", ctr, principal.KeyOf(fuzzServerKey.Public()), nil); err != nil {
		t.Fatal(err)
	}
	return srv, ctr
}

// recordExchange runs a real client, whose prover holds a grant from
// the server key to its channel key, through challenge -> proof submit
// -> retry over an in-process channel and returns the bytes it wrote.
func recordExchange(t testing.TB) []byte {
	t.Helper()
	srv, _ := newFuzzServer(t)
	host := local.NewHost()
	l, err := host.Listen("counter", fuzzServerKey.Public())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go srv.Serve(l)

	grant, err := cert.Delegate(fuzzServerKey, principal.KeyOf(fuzzChanKey.Public()),
		principal.KeyOf(fuzzServerKey.Public()), ObjectTag("counter"), core.Forever)
	if err != nil {
		t.Fatal(err)
	}
	pv := prover.New()
	pv.AddProof(grant)
	c, tap := dialTapped(t, local.Dialer{Host: host, Key: fuzzChanKey.Public()}, "counter", pv)
	defer c.Close()
	var reply CountReply
	if err := c.Call("counter", "Inc", CountArgs{By: 1}, &reply); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Challenges != 1 || st.Retries != 1 {
		t.Fatalf("recorded exchange stats = %+v, want one challenge and one retry", st)
	}
	return bytes.Clone(tap.wrote.Bytes())
}

// serveReplay feeds data to a fresh server's ServeConn and fails if it
// does not return.
func serveReplay(t *testing.T, data []byte) *guardedCounter {
	srv, ctr := newFuzzServer(t)
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.ServeConn(&replayConn{r: bytes.NewReader(data), peer: fuzzChanKey.Public()})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("ServeConn hung on %d input bytes", len(data))
	}
	return ctr
}

// FuzzRMIServeConn feeds arbitrary bytes to Server.ServeConn as what a
// peer sent on its channel. The server must return without panicking
// or hanging, and the protected counter must never run while no proof
// is on file: only a proof signed by the server's key, as in the
// recorded exchange, can put one there.
func FuzzRMIServeConn(f *testing.F) {
	rec := recordExchange(f)
	f.Add(rec)
	f.Add(rec[:len(rec)/2])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		ctr := serveReplay(t, data)
		if ctr.unguarded != 0 {
			t.Fatalf("protected method ran %d times with no proof on file", ctr.unguarded)
		}
		if bytes.Equal(data, rec) && ctr.runs != 1 {
			t.Fatalf("recorded exchange ran the method %d times, want 1", ctr.runs)
		}
	})
}
