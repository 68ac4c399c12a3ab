package rmi

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/channel/plain"
)

// GateService holds each Hold call until the test releases it, so a
// test can keep a channel busy for as long as it likes.
type GateService struct {
	entered chan string
	release chan struct{}
}

func newGate() *GateService {
	return &GateService{entered: make(chan string, 16), release: make(chan struct{})}
}

func (g *GateService) Hold(args EchoArgs, reply *EchoReply) error {
	g.entered <- args.Msg
	<-g.release
	reply.Msg = args.Msg
	return nil
}

// awaitEntered waits for a Hold call to reach its method.
func (g *GateService) awaitEntered(t *testing.T) {
	t.Helper()
	select {
	case <-g.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("held call never reached the server")
	}
}

// hold starts a Hold call on c in the background; the returned channel
// yields its error once the gate opens (or the channel breaks).
func hold(c *Client, msg string) <-chan error {
	done := make(chan error, 1)
	go func() {
		var reply EchoReply
		err := c.Call("gate", "Hold", EchoArgs{Msg: msg}, &reply)
		if err == nil && reply.Msg != msg {
			err = errors.New("held call answered " + reply.Msg)
		}
		done <- err
	}()
	return done
}

// trackingDialer records every channel it opens, so a test can see
// which ones the client closed.
type trackingDialer struct {
	inner channel.Dialer
	mu    sync.Mutex
	conns []*trackedConn
}

type trackedConn struct {
	channel.Conn
	mu     sync.Mutex
	closed bool
}

func (c *trackedConn) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	return c.Conn.Close()
}

func (d *trackingDialer) Dial(addr string) (channel.Conn, error) {
	conn, err := d.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	tc := &trackedConn{Conn: conn}
	d.mu.Lock()
	d.conns = append(d.conns, tc)
	d.mu.Unlock()
	return tc, nil
}

// openChannels counts the channels the client has not closed.
func (d *trackingDialer) openChannels() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, c := range d.conns {
		c.mu.Lock()
		if !c.closed {
			n++
		}
		c.mu.Unlock()
	}
	return n
}

// gateServer serves the open echo and gate objects over plain TCP on
// addr ("127.0.0.1:0" for any port).
func gateServer(t *testing.T, addr string) (*Server, *GateService, *plain.Listener) {
	t.Helper()
	srv := NewServer()
	gate := newGate()
	if err := srv.RegisterOpen("echo", &EchoService{}); err != nil {
		t.Fatal(err)
	}
	if err := srv.RegisterOpen("gate", gate); err != nil {
		t.Fatal(err)
	}
	l, err := plain.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() {
		l.Close()
		srv.Drain(time.Millisecond)
	})
	return srv, gate, l
}

// TestOverlappingCallDoesNotWait: while one call is held inside the
// server, a second call on the same client completes on a channel of
// its own.
func TestOverlappingCallDoesNotWait(t *testing.T) {
	_, gate, l := gateServer(t, "127.0.0.1:0")
	c, err := Dial(plain.Dialer{}, l.Addr().String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	held := hold(c, "held")
	gate.awaitEntered(t)
	done := make(chan error, 1)
	go func() {
		var reply EchoReply
		done <- c.Call("echo", "Echo", EchoArgs{Msg: "overlap"}, &reply)
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("overlapping call: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("overlapping call waited for the held call's channel")
	}
	close(gate.release)
	if err := <-held; err != nil {
		t.Fatalf("held call: %v", err)
	}
	if st := c.Stats(); st.Dials != 2 || st.Calls != 2 {
		t.Fatalf("stats = %+v, want 2 calls over 2 dialed channels", st)
	}
}

// TestProofServesEveryChannel: a proof filed after a challenge on one
// channel admits a later call that arrives on a second channel of the
// same client, with no second challenge and no second submission —
// every channel of a keyed client speaks with the same key.
func TestProofServesEveryChannel(t *testing.T) {
	grant := ObjectTag("echo")
	w := newWorld(t, grant)
	gate := newGate()
	if err := w.srv.RegisterOpen("gate", gate); err != nil {
		t.Fatal(err)
	}
	c := w.authorizedClient(t, grant)

	var reply EchoReply
	if err := c.Call("echo", "Echo", EchoArgs{Msg: "first"}, &reply); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Challenges != 1 || st.Dials != 1 {
		t.Fatalf("first call stats = %+v, want one challenge on one channel", st)
	}

	// Keep the first channel busy so the next call dials a second.
	held := hold(c, "busy")
	gate.awaitEntered(t)
	done := make(chan error, 1)
	go func() { done <- c.Call("echo", "Echo", EchoArgs{Msg: "second channel"}, &EchoReply{}) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("call on the second channel: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("call waited for the busy channel")
	}
	close(gate.release)
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Dials != 2 || st.Challenges != 1 || st.Proofs != 1 {
		t.Fatalf("stats = %+v, want 2 channels, 1 challenge, 1 proof", st)
	}
	if ss := w.srv.Stats(); ss.ProofSubmits != 1 {
		t.Fatalf("server took %d proof submissions, want 1", ss.ProofSubmits)
	}
}

// TestBrokenChannelRedialsAfterRestart: a channel that breaks mid-call
// is closed and never reused, so once the server is back on the same
// address the next call dials afresh and succeeds.
func TestBrokenChannelRedialsAfterRestart(t *testing.T) {
	srv, gate, l := gateServer(t, "127.0.0.1:0")
	addr := l.Addr().String()
	d := &trackingDialer{inner: plain.Dialer{}}
	c, err := Dial(d, addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	held := hold(c, "doomed")
	gate.awaitEntered(t)
	l.Close()
	srv.Drain(time.Millisecond) // the server goes away mid-call
	if err := <-held; err == nil {
		t.Fatal("call survived its server going away")
	}
	close(gate.release)
	if n := d.openChannels(); n != 0 {
		t.Fatalf("%d channels still open after the break, want the broken one closed", n)
	}

	gateServer(t, addr)
	var reply EchoReply
	if err := c.Call("echo", "Echo", EchoArgs{Msg: "back"}, &reply); err != nil {
		t.Fatalf("call after restart: %v", err)
	}
	if reply.Msg != "back" {
		t.Fatalf("reply = %+v", reply)
	}
	if st := c.Stats(); st.Dials != 2 {
		t.Fatalf("dials = %d, want a fresh channel after the break", st.Dials)
	}
}

// TestOpenChannelsCapped: more overlapping calls than the cap never
// open more channels than the cap; the calls over it wait for a channel
// to come back, and every call completes once the held ones are
// released.
func TestOpenChannelsCapped(t *testing.T) {
	_, gate, l := gateServer(t, "127.0.0.1:0")
	d := &trackingDialer{inner: plain.Dialer{}}
	c, err := Dial(d, l.Addr().String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.maxOpen = 2

	const overlap = 5
	var held []<-chan error
	for i := 0; i < overlap; i++ {
		held = append(held, hold(c, "held"))
	}
	for i := 0; i < c.maxOpen; i++ {
		gate.awaitEntered(t)
	}
	time.Sleep(50 * time.Millisecond) // room for a call over the cap to dial
	if n := d.openChannels(); n != c.maxOpen {
		t.Fatalf("%d channels open with %d calls in flight, want the cap %d", n, overlap, c.maxOpen)
	}
	select {
	case <-gate.entered:
		t.Fatal("a call over the cap reached the server while the cap's calls were held")
	default:
	}
	close(gate.release)
	for _, h := range held {
		select {
		case err := <-h:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a call waiting at the cap never got a channel")
		}
	}
	if st := c.Stats(); st.Dials != c.maxOpen || st.Calls != overlap {
		t.Fatalf("stats = %+v, want %d calls over %d channels", st, overlap, c.maxOpen)
	}
}

// TestCloseLeavesNoChannelOpen: finished calls keep their channels for
// the next ones; Close then closes every channel, idle or in use, and
// the server sees them all go.
func TestCloseLeavesNoChannelOpen(t *testing.T) {
	srv, gate, l := gateServer(t, "127.0.0.1:0")
	d := &trackingDialer{inner: plain.Dialer{}}
	c, err := Dial(d, l.Addr().String(), nil)
	if err != nil {
		t.Fatal(err)
	}

	const overlap = 3
	var held []<-chan error
	for i := 0; i < overlap; i++ {
		held = append(held, hold(c, "held"))
		gate.awaitEntered(t)
	}
	close(gate.release)
	for _, h := range held {
		if err := <-h; err != nil {
			t.Fatal(err)
		}
	}
	if n := d.openChannels(); n != overlap {
		t.Fatalf("%d channels open after the calls, want all %d kept", n, overlap)
	}

	gate.release = make(chan struct{})
	inflight := hold(c, "in flight at close")
	gate.awaitEntered(t)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-inflight:
		if err == nil {
			t.Fatal("call in flight at Close succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("call in flight at Close still waiting: its channel was left open")
	}
	close(gate.release)
	if n := d.openChannels(); n != 0 {
		t.Fatalf("%d channels open after Close", n)
	}
	var reply EchoReply
	if err := c.Call("echo", "Echo", EchoArgs{}, &reply); err == nil {
		t.Fatal("call after Close succeeded")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		srv.mu.Lock()
		n := len(srv.conns)
		srv.mu.Unlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server still holds %d connections after the client closed", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
