package rmi

import (
	"bufio"
	"context"
	"encoding/gob"
	"fmt"
	"sync"
	"time"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/principal"
	"repro/internal/prover"
	"repro/internal/tag"
)

// Client invokes remote objects over one authenticated channel. Its
// Call method is the invoker of Figure 4: it makes the remote call,
// catches the server's NeedAuthorization challenge, obtains a proof
// from the Prover, pushes it to the server's proof recipient, and
// retries — all invisible to the caller, who only established
// identity by attaching a Prover.
type Client struct {
	mu     sync.Mutex
	conn   channel.Conn
	bw     *bufio.Writer
	enc    *gob.Encoder
	dec    *gob.Decoder
	prover *prover.Prover
	nextID int64

	// Clock supplies proof-search time; nil means time.Now.
	Clock func() time.Time

	stats ClientStats
}

// ClientStats counts invoker work.
type ClientStats struct {
	Calls      int
	Challenges int
	Proofs     int
	Retries    int
}

// NewClient wraps an established channel. The prover may be nil for
// purely open (unauthenticated) services. The client keeps one gob
// stream each way for the channel's life, so type descriptors cross
// once per connection. Writes are buffered and flushed once per call,
// so each invocation crosses the channel as a single record.
func NewClient(conn channel.Conn, pv *prover.Prover) *Client {
	bw := bufio.NewWriter(conn)
	return &Client{
		conn:   conn,
		bw:     bw,
		enc:    gob.NewEncoder(bw),
		dec:    gob.NewDecoder(conn),
		prover: pv,
	}
}

// Dial connects through any channel mechanism and wraps the result.
func Dial(d channel.Dialer, addr string, pv *prover.Prover) (*Client, error) {
	conn, err := d.Dial(addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn, pv), nil
}

// Close tears down the channel.
func (c *Client) Close() error { return c.conn.Close() }

// Conn exposes the underlying channel (for inspecting keys).
func (c *Client) Conn() channel.Conn { return c.conn }

// ChannelSpeaker returns the principal the server will see as the
// utterer of this client's requests: the channel's local key (K2).
func (c *Client) ChannelSpeaker() principal.Principal {
	lk := c.conn.LocalKey()
	if zeroKey(lk) {
		return c.conn.Principal()
	}
	return principal.KeyOf(lk)
}

// Stats returns a copy of the counters.
func (c *Client) Stats() ClientStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
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
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Calls++

	resp, err := c.roundTrip(ctx, quotee, object, method, args)
	if err != nil {
		return err
	}
	if resp.Kind == kindNeedAuth {
		c.stats.Challenges++
		if err := c.satisfyChallenge(ctx, quotee, resp); err != nil {
			return err
		}
		c.stats.Retries++
		if resp, err = c.roundTrip(ctx, quotee, object, method, args); err != nil {
			return err
		}
	}
	switch resp.Kind {
	case kindOK:
		return c.readResult(reply)
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
// be read closes the channel: a gob stream cannot resynchronize.
func (c *Client) roundTrip(ctx context.Context, quotee principal.Principal, object, method string, args interface{}) (_ *callResponse, err error) {
	defer func() {
		if err != nil {
			c.conn.Close()
		}
	}()
	c.nextID++
	req := callRequest{
		ID:     c.nextID,
		Object: object,
		Method: method,
		Trace:  obs.Inject(ctx),
	}
	if quotee != nil {
		req.Quotee = quotee.Sexp().Transport()
	}
	if err := c.enc.Encode(&req); err != nil {
		return nil, fmt.Errorf("rmi: send: %w", err)
	}
	if err := c.enc.Encode(args); err != nil {
		return nil, fmt.Errorf("rmi: encode args: %w", err)
	}
	if err := c.bw.Flush(); err != nil {
		return nil, fmt.Errorf("rmi: send: %w", err)
	}
	var resp callResponse
	if err := c.dec.Decode(&resp); err != nil {
		return nil, fmt.Errorf("rmi: receive: %w", err)
	}
	if resp.ID != req.ID {
		return nil, fmt.Errorf("rmi: response id mismatch")
	}
	return &resp, nil
}

// readResult reads the result value that follows a kindOK reply
// header into reply; a nil reply reads and discards it. A result that
// does not decode closes the channel, as in roundTrip.
func (c *Client) readResult(reply interface{}) error {
	if err := c.dec.Decode(reply); err != nil {
		c.conn.Close()
		return fmt.Errorf("rmi: decode result: %w", err)
	}
	return nil
}

// satisfyChallenge is steps f-n of Figure 4: inspect the challenge,
// query the Prover for a proof that our channel key (possibly quoting)
// speaks for the required issuer, and push it to the proof recipient.
func (c *Client) satisfyChallenge(ctx context.Context, quotee principal.Principal, resp *callResponse) error {
	if c.prover == nil {
		return fmt.Errorf("rmi: server demands authorization but client has no prover")
	}
	issuer, minTag, err := decodeChallenge(resp.Issuer, resp.MinTag)
	if err != nil {
		return err
	}
	var speaker principal.Principal = c.ChannelSpeaker()
	if quotee != nil {
		speaker = principal.QuoteOf(speaker, quotee)
	}
	now := time.Now()
	if c.Clock != nil {
		now = c.Clock()
	}
	proof, err := c.prover.FindProofCtx(ctx, speaker, issuer, minTag, now)
	if err != nil {
		return fmt.Errorf("rmi: cannot satisfy challenge: %w", err)
	}
	c.stats.Proofs++
	return c.submitProofLocked(ctx, proof)
}

// submitProofLocked pushes a proof to the server's proof recipient on
// the caller's trace, so the server's verification joins it.
func (c *Client) submitProofLocked(ctx context.Context, p core.Proof) error {
	resp, err := c.roundTrip(ctx, nil, proofRecipientObject, "Submit", submitArgs{Proof: p.Sexp().Transport()})
	if err != nil {
		return err
	}
	if resp.Kind != kindOK {
		return fmt.Errorf("rmi: proof rejected: %s", resp.Err)
	}
	return c.readResult(nil)
}

// EstablishAuthority mints and submits a delegation from a controlled
// principal (usually the user's key KC) to this client's channel key
// (K2), restricted to t and ttl — the "new Snowflake-authorized RMI
// connection" setup whose public-key operation dominates cold-call
// cost (section 7.2). Most callers instead rely on the automatic
// challenge path of Call.
func (c *Client) EstablishAuthority(from principal.Principal, t tag.Tag, ttl time.Duration) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.prover == nil {
		return fmt.Errorf("rmi: no prover attached")
	}
	now := time.Now()
	if c.Clock != nil {
		now = c.Clock()
	}
	proof, err := c.prover.Delegate(from, c.ChannelSpeaker(), t,
		core.Between(now.Add(-time.Minute), now.Add(ttl)))
	if err != nil {
		return err
	}
	return c.submitProofLocked(context.Background(), proof)
}
