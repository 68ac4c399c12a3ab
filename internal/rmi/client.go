package rmi

import (
	"bufio"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/principal"
	"repro/internal/prover"
	"repro/internal/tag"
)

// Client invokes remote objects over authenticated channels. Its Call
// method is the invoker of Figure 4: it makes the remote call, catches
// the server's NeedAuthorization challenge, obtains a proof from the
// Prover, pushes it to the server's proof recipient, and retries — all
// invisible to the caller, who only established identity by attaching
// a Prover.
//
// A call holds one channel for its whole exchange, challenge and proof
// search included, so calls never wait on each other: each takes an
// idle channel or dials a new one. Channels stay open between calls,
// so the pool grows to the peak overlap, up to openPerProc channels
// per core; at that cap a call waits for a channel to come back. A
// channel whose stream broke is closed and never reused.
type Client struct {
	dialer  channel.Dialer
	addr    string
	prover  *prover.Prover
	maxOpen int

	// Clock supplies proof-search time; nil means time.Now.
	Clock func() time.Time

	mu      sync.Mutex
	freed   *sync.Cond // signalled when a channel goes idle or a slot frees
	idle    []*clientConn
	open    map[*clientConn]struct{} // idle and in use
	dialing int                      // dials in progress, counted against maxOpen
	closed  bool
	stats   ClientStats
}

// openPerProc channels per core bound what one client holds open, and
// so the dials and handshakes a flood of overlapping calls can cost
// the server. A call holds its channel through a proof search, which
// waits on directory round trips rather than a core, so the bound is
// a small multiple of the cores rather than the cores themselves.
const openPerProc = 4

// ClientStats counts invoker work.
type ClientStats struct {
	Calls      int
	Challenges int
	Proofs     int
	Retries    int
	Dials      int // channels dialed, Dial's first included
}

// clientConn is one channel and its gob stream each way. Type
// descriptors cross once per channel. Writes are buffered and flushed
// once per call, so each invocation crosses the channel as a single
// record. One exchange runs on it at a time.
type clientConn struct {
	conn   channel.Conn
	bw     *bufio.Writer
	enc    *gob.Encoder
	dec    *gob.Decoder
	nextID int64
	broken bool // a send or receive failed: the stream is out of step
}

var errClosed = errors.New("rmi: client closed")

// Dial connects through any channel mechanism. The prover may be nil
// for purely open (unauthenticated) services. The first channel is
// opened now, so an unreachable server fails here; later channels are
// dialed as overlapping calls need them.
func Dial(d channel.Dialer, addr string, pv *prover.Prover) (*Client, error) {
	c := &Client{
		dialer:  d,
		addr:    addr,
		prover:  pv,
		maxOpen: openPerProc * runtime.GOMAXPROCS(0),
		open:    make(map[*clientConn]struct{}),
	}
	c.freed = sync.NewCond(&c.mu)
	cc, err := c.get()
	if err != nil {
		return nil, err
	}
	c.put(cc)
	return c, nil
}

// Close tears down every channel, idle or in use; calls in flight
// fail and later calls return an error.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	all := make([]*clientConn, 0, len(c.open))
	for cc := range c.open {
		all = append(all, cc)
	}
	c.open = make(map[*clientConn]struct{})
	c.idle = nil
	c.freed.Broadcast()
	c.mu.Unlock()
	var first error
	for _, cc := range all {
		if err := cc.conn.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// get takes a channel for one exchange: the most recently used idle
// one, else a new one from the dialer while the client holds fewer
// than maxOpen; at the cap it waits for a channel to come back.
func (c *Client) get() (*clientConn, error) {
	c.mu.Lock()
	for {
		if c.closed {
			c.mu.Unlock()
			return nil, errClosed
		}
		if n := len(c.idle); n > 0 {
			cc := c.idle[n-1]
			c.idle = c.idle[:n-1]
			c.mu.Unlock()
			return cc, nil
		}
		if len(c.open)+c.dialing < c.maxOpen {
			break
		}
		c.freed.Wait()
	}
	c.dialing++
	c.mu.Unlock()
	return c.dial()
}

// dial opens the fresh channel get reserved a slot for and registers
// it as in use. A failed dial gives the slot back.
func (c *Client) dial() (*clientConn, error) {
	conn, err := c.dialer.Dial(c.addr)
	c.mu.Lock()
	c.dialing--
	if err != nil {
		c.freed.Broadcast()
		c.mu.Unlock()
		return nil, fmt.Errorf("rmi: dial %s: %w", c.addr, err)
	}
	if c.closed {
		c.mu.Unlock()
		conn.Close()
		return nil, errClosed
	}
	bw := bufio.NewWriter(conn)
	cc := &clientConn{conn: conn, bw: bw, enc: gob.NewEncoder(bw), dec: gob.NewDecoder(conn)}
	c.open[cc] = struct{}{}
	c.stats.Dials++
	c.mu.Unlock()
	return cc, nil
}

// put ends an exchange: the channel goes back to the idle set, unless
// its stream broke or the client closed, in which case it is closed.
func (c *Client) put(cc *clientConn) {
	c.mu.Lock()
	keep := !cc.broken && !c.closed
	if keep {
		c.idle = append(c.idle, cc)
	} else {
		delete(c.open, cc)
	}
	c.freed.Broadcast()
	c.mu.Unlock()
	if !keep {
		cc.conn.Close()
	}
}

// speakerOf returns the principal the server will see as the utterer
// of requests on conn: the channel's local key (K2), or the channel
// itself when it carries none. Keyed channels of one client all share
// that key, so a proof filed for one serves every channel.
func speakerOf(conn channel.Conn) principal.Principal {
	lk := conn.LocalKey()
	if zeroKey(lk) {
		return conn.Principal()
	}
	return principal.KeyOf(lk)
}

// Stats returns a copy of the counters.
func (c *Client) Stats() ClientStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// count applies f to the counters under the lock.
func (c *Client) count(f func(*ClientStats)) {
	c.mu.Lock()
	f(&c.stats)
	c.mu.Unlock()
}

// Call invokes object.method(args, reply).
func (c *Client) Call(object, method string, args, reply interface{}) error {
	return c.call(context.Background(), nil, object, method, args, reply)
}

// CallQuoting invokes the method while quoting another principal: the
// server attributes the request to "channel-key | quotee" and demands
// a proof for that compound principal (section 6.3).
func (c *Client) CallQuoting(quotee principal.Principal, object, method string, args, reply interface{}) error {
	return c.call(context.Background(), quotee, object, method, args, reply)
}

// CallQuotingCtx is CallQuoting carrying a context: an active obs span
// on ctx rides the wire as the request's Sf-Trace value, so the
// server's dispatch span (and any proof search a challenge triggers)
// joins the trace.
func (c *Client) CallQuotingCtx(ctx context.Context, quotee principal.Principal, object, method string, args, reply interface{}) error {
	return c.call(ctx, quotee, object, method, args, reply)
}

func (c *Client) call(ctx context.Context, quotee principal.Principal, object, method string, args, reply interface{}) error {
	c.count(func(s *ClientStats) { s.Calls++ })
	cc, err := c.get()
	if err != nil {
		return err
	}
	defer c.put(cc)

	resp, err := cc.roundTrip(ctx, quotee, object, method, args)
	if err != nil {
		return err
	}
	if resp.Kind == kindNeedAuth {
		c.count(func(s *ClientStats) { s.Challenges++ })
		if err := c.satisfyChallenge(ctx, cc, quotee, resp); err != nil {
			return err
		}
		c.count(func(s *ClientStats) { s.Retries++ })
		if resp, err = cc.roundTrip(ctx, quotee, object, method, args); err != nil {
			return err
		}
	}
	switch resp.Kind {
	case kindOK:
		return cc.readResult(reply)
	case kindNeedAuth:
		iss, mt, derr := decodeChallenge(resp.Issuer, resp.MinTag)
		if derr != nil {
			return derr
		}
		return &NeedAuthorization{Issuer: iss, MinTag: mt}
	default:
		return fmt.Errorf("rmi: remote error: %s", resp.Err)
	}
}

// roundTrip writes one call, its header and then its argument value,
// and reads the reply header. A kindOK header is followed by the
// result value, which the caller must read with readResult before the
// next exchange. A call that cannot be written or a reply that cannot
// be read marks the channel broken: a gob stream cannot
// resynchronize.
func (cc *clientConn) roundTrip(ctx context.Context, quotee principal.Principal, object, method string, args interface{}) (_ *callResponse, err error) {
	defer func() {
		if err != nil {
			cc.broken = true
		}
	}()
	cc.nextID++
	req := callRequest{
		ID:     cc.nextID,
		Object: object,
		Method: method,
		Trace:  obs.Inject(ctx),
	}
	if quotee != nil {
		req.Quotee = quotee.Sexp().Transport()
	}
	if err := cc.enc.Encode(&req); err != nil {
		return nil, fmt.Errorf("rmi: send: %w", err)
	}
	if err := cc.enc.Encode(args); err != nil {
		return nil, fmt.Errorf("rmi: encode args: %w", err)
	}
	if err := cc.bw.Flush(); err != nil {
		return nil, fmt.Errorf("rmi: send: %w", err)
	}
	var resp callResponse
	if err := cc.dec.Decode(&resp); err != nil {
		return nil, fmt.Errorf("rmi: receive: %w", err)
	}
	if resp.ID != req.ID {
		return nil, fmt.Errorf("rmi: response id mismatch")
	}
	return &resp, nil
}

// readResult reads the result value that follows a kindOK reply
// header into reply; a nil reply reads and discards it. A result that
// does not decode marks the channel broken, as in roundTrip.
func (cc *clientConn) readResult(reply interface{}) error {
	if err := cc.dec.Decode(reply); err != nil {
		cc.broken = true
		return fmt.Errorf("rmi: decode result: %w", err)
	}
	return nil
}

// satisfyChallenge is steps f-n of Figure 4: inspect the challenge,
// query the Prover for a proof that the channel's key (possibly
// quoting) speaks for the required issuer, and push it to the proof
// recipient on the same channel.
func (c *Client) satisfyChallenge(ctx context.Context, cc *clientConn, quotee principal.Principal, resp *callResponse) error {
	if c.prover == nil {
		return fmt.Errorf("rmi: server demands authorization but client has no prover")
	}
	issuer, minTag, err := decodeChallenge(resp.Issuer, resp.MinTag)
	if err != nil {
		return err
	}
	speaker := speakerOf(cc.conn)
	if quotee != nil {
		speaker = principal.QuoteOf(speaker, quotee)
	}
	proof, err := c.prover.FindProofCtx(ctx, speaker, issuer, minTag, c.now())
	if err != nil {
		return fmt.Errorf("rmi: cannot satisfy challenge: %w", err)
	}
	c.count(func(s *ClientStats) { s.Proofs++ })
	return cc.submitProof(ctx, proof)
}

func (c *Client) now() time.Time {
	if c.Clock != nil {
		return c.Clock()
	}
	return time.Now()
}

// submitProof pushes a proof to the server's proof recipient on the
// caller's trace, so the server's verification joins it.
func (cc *clientConn) submitProof(ctx context.Context, p core.Proof) error {
	resp, err := cc.roundTrip(ctx, nil, proofRecipientObject, "Submit", submitArgs{Proof: p.Sexp().Transport()})
	if err != nil {
		return err
	}
	if resp.Kind != kindOK {
		return fmt.Errorf("rmi: proof rejected: %s", resp.Err)
	}
	return cc.readResult(nil)
}

// EstablishAuthority mints and submits a delegation from a controlled
// principal (usually the user's key KC) to this client's channel key
// (K2), restricted to t and ttl — the "new Snowflake-authorized RMI
// connection" setup whose public-key operation dominates cold-call
// cost (section 7.2). Most callers instead rely on the automatic
// challenge path of Call.
func (c *Client) EstablishAuthority(from principal.Principal, t tag.Tag, ttl time.Duration) error {
	if c.prover == nil {
		return fmt.Errorf("rmi: no prover attached")
	}
	cc, err := c.get()
	if err != nil {
		return err
	}
	defer c.put(cc)
	now := c.now()
	proof, err := c.prover.Delegate(from, speakerOf(cc.conn), t,
		core.Between(now.Add(-time.Minute), now.Add(ttl)))
	if err != nil {
		return err
	}
	return cc.submitProof(context.Background(), proof)
}
