package rmi

import (
	"bytes"
	"encoding/gob"
	"errors"
	"io"
	"sync"
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/channel/local"
	"repro/internal/principal"
	"repro/internal/prover"
	"repro/internal/sfkey"
)

// tapConn keeps the bytes a channel end writes and counts those it
// reads. The rmi.Client that owns it runs one exchange at a time on a
// channel, so the counters need no lock.
type tapConn struct {
	channel.Conn
	wrote bytes.Buffer
	read  int
}

func (c *tapConn) Write(p []byte) (int, error) {
	c.wrote.Write(p)
	return c.Conn.Write(p)
}

func (c *tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read += n
	return n, err
}

// tapDialer wraps every channel it opens in a tapConn; taps[0] is the
// channel Dial opens first.
type tapDialer struct {
	inner channel.Dialer
	mu    sync.Mutex
	taps  []*tapConn
}

func (d *tapDialer) Dial(addr string) (channel.Conn, error) {
	conn, err := d.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	tap := &tapConn{Conn: conn}
	d.mu.Lock()
	d.taps = append(d.taps, tap)
	d.mu.Unlock()
	return tap, nil
}

// dialTapped dials addr through a tapDialer and returns the client
// and the tap on its first channel.
func dialTapped(t testing.TB, inner channel.Dialer, addr string, pv *prover.Prover) (*Client, *tapConn) {
	t.Helper()
	d := &tapDialer{inner: inner}
	c, err := Dial(d, addr, pv)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, d.taps[0]
}

// localOpenServer serves an open echo object on an in-process channel
// and returns a function that opens a tapped client to it.
func localOpenServer(t *testing.T) func() (*Client, *tapConn) {
	t.Helper()
	host := local.NewHost()
	srv := NewServer()
	if err := srv.RegisterOpen("echo", &EchoService{}); err != nil {
		t.Fatal(err)
	}
	l, err := host.Listen("echo-svc", sfkey.FromSeed([]byte("stream-server")).Public())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go srv.Serve(l)
	d := local.Dialer{Host: host, Key: sfkey.FromSeed([]byte("stream-client")).Public()}
	return func() (*Client, *tapConn) { return dialTapped(t, d, "echo-svc", nil) }
}

// typeInfoBytes is what gob's type descriptors for v's type cost on a
// fresh stream: a first encoding of v minus a repeat on the same
// encoder.
func typeInfoBytes(t *testing.T, v interface{}) int {
	t.Helper()
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	first := buf.Len()
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return 2*first - buf.Len()
}

// TestTypeInfoCrossesOncePerConnection: a call's argument and result
// ride the channel's one gob stream, so the second identical call on a
// connection sends and receives exactly the type descriptors fewer
// than the first, and a fresh connection pays them again.
func TestTypeInfoCrossesOncePerConnection(t *testing.T) {
	dial := localOpenServer(t)
	quotee := principal.KeyOf(sfkey.FromSeed([]byte("stream-quotee")).Public())
	call := func(c *Client, tap *tapConn) (wrote, read int) {
		t.Helper()
		w0, r0 := tap.wrote.Len(), tap.read
		var reply EchoReply
		if err := c.CallQuoting(quotee, "echo", "Echo", EchoArgs{Msg: "same"}, &reply); err != nil {
			t.Fatal(err)
		}
		if reply.Msg != "same" {
			t.Fatalf("reply = %+v", reply)
		}
		return tap.wrote.Len() - w0, tap.read - r0
	}

	c, tap := dial()
	w1, r1 := call(c, tap)
	w2, r2 := call(c, tap)
	if w2 >= w1 || r2 >= r1 {
		t.Fatalf("second call wrote %d/read %d bytes, first %d/%d: want fewer", w2, r2, w1, r1)
	}
	if want := typeInfoBytes(t, callRequest{}) + typeInfoBytes(t, EchoArgs{}); w1-w2 != want {
		t.Fatalf("second call wrote %d bytes fewer than the first, want the %d bytes of request and argument type info", w1-w2, want)
	}
	if want := typeInfoBytes(t, callResponse{}) + typeInfoBytes(t, EchoReply{}); r1-r2 != want {
		t.Fatalf("second call read %d bytes fewer than the first, want the %d bytes of reply and result type info", r1-r2, want)
	}

	fresh, ftap := dial()
	if w3, r3 := call(fresh, ftap); w3 != w1 || r3 != r1 {
		t.Fatalf("fresh connection's first call wrote %d/read %d bytes, want the first call's %d/%d", w3, r3, w1, r1)
	}
}

// TestUndecodableArgumentsCloseOnlyThatConnection: an argument value
// the method's type cannot take closes the connection it came on — the
// stream cannot resynchronize — while the server keeps serving others.
// The client does not reuse the closed connection: its next call dials
// a fresh one.
func TestUndecodableArgumentsCloseOnlyThatConnection(t *testing.T) {
	dial := localOpenServer(t)
	a, _ := dial()
	b, _ := dial()
	var reply EchoReply
	if err := b.Call("echo", "Echo", EchoArgs{Msg: "before"}, &reply); err != nil {
		t.Fatal(err)
	}

	type wrongArgs struct{ Msg []int }
	err := a.Call("echo", "Echo", wrongArgs{Msg: []int{7}}, &reply)
	if !errors.Is(err, io.EOF) {
		t.Fatalf("undecodable argument: err = %v, want the connection closed (EOF)", err)
	}
	if err := a.Call("echo", "Echo", EchoArgs{Msg: "after"}, &reply); err != nil {
		t.Fatalf("call after the closed connection: %v", err)
	}
	if st := a.Stats(); st.Dials != 2 {
		t.Fatalf("dials = %d, want the closed connection replaced by a fresh one", st.Dials)
	}

	if err := b.Call("echo", "Echo", EchoArgs{Msg: "after"}, &reply); err != nil {
		t.Fatalf("other connection broken by A's bad argument: %v", err)
	}
	if reply.Msg != "after" {
		t.Fatalf("reply = %+v", reply)
	}
	if st := b.Stats(); st.Dials != 1 {
		t.Fatalf("dials = %d, want B's one connection kept", st.Dials)
	}
}

// earlierRequest is the call header of the wire before arguments rode
// the channel's stream: an unsigned ID, and the argument gob-encoded
// on its own into Args. (Its Quotee and Trace fields do not matter
// here.)
type earlierRequest struct {
	ID             uint64
	Object, Method string
	Args           []byte
}

// TestEarlierWireFailsFast: the earlier wire and this one do not
// interoperate, and a mixed pair must fail at its first call rather
// than stall. A server closes a connection whose first header is of
// the earlier wire, instead of waiting for an argument value that
// will never come, and this wire's header does not decode as the
// earlier one, so an earlier server closes the connection too.
func TestEarlierWireFailsFast(t *testing.T) {
	dial := localOpenServer(t)
	_, tap := dial()
	var args bytes.Buffer
	if err := gob.NewEncoder(&args).Encode(EchoArgs{Msg: "earlier"}); err != nil {
		t.Fatal(err)
	}
	if err := gob.NewEncoder(tap.Conn).Encode(earlierRequest{ID: 1, Object: "echo", Method: "Echo", Args: args.Bytes()}); err != nil {
		t.Fatal(err)
	}
	read := make(chan error, 1)
	go func() {
		_, err := tap.Conn.Read(make([]byte, 1))
		read <- err
	}()
	select {
	case err := <-read:
		if !errors.Is(err, io.EOF) {
			t.Fatalf("server answered an earlier-wire header (read err %v), want the connection closed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server stalled on an earlier-wire header")
	}

	var hdr bytes.Buffer
	if err := gob.NewEncoder(&hdr).Encode(callRequest{ID: 1, Object: "echo", Method: "Echo"}); err != nil {
		t.Fatal(err)
	}
	var old earlierRequest
	if err := gob.NewDecoder(&hdr).Decode(&old); err == nil {
		t.Fatalf("this wire's header decoded as the earlier wire's: %+v", old)
	}
}
