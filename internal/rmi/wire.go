// Package rmi implements Snowflake's remote method invocation layer
// (paper section 5.1.1, Figure 4): remote objects invoked over
// authenticated channels, with authorization enforced by a
// checkAuth() prologue on every protected method and repaired by an
// exception-driven proof push from the client's Prover.
//
// Substitution note (DESIGN.md section 3): the paper used Java RMI
// with mechanically rewritten stubs; this package is the Go analog —
// reflect-dispatched methods in net/rpc style, a client Invoker that
// catches the NeedAuthorization error, fetches a proof, submits it to
// the server's proof recipient, and retries.
package rmi

import (
	"fmt"

	"repro/internal/principal"
	"repro/internal/sexp"
	"repro/internal/tag"
)

// callRequest is the header of one invocation. The channel carries
// one gob stream per direction for its whole life: each callRequest
// is followed on the stream by the argument value itself, so gob sends
// the type descriptors of callRequest and of each argument type once
// per connection, not once per call. Quotee, when nonempty, is the
// S-expression of the principal the caller claims to quote; the
// channel principal then becomes "channel | quotee" (section 6.3).
type callRequest struct {
	// ID is signed: the earlier wire, which wrapped each argument in a
	// byte field of an unsigned-ID header, then fails to decode here,
	// so a peer still speaking it loses its connection at the first
	// call instead of leaving the server waiting for a value it will
	// never send.
	ID     int64
	Object string
	Method string
	Quotee []byte
	// Trace carries the caller's Sf-Trace context (obs.TraceHeader
	// format) so the server's dispatch span joins the caller's trace.
	Trace string
}

// Response kinds.
const (
	kindOK       = "ok"
	kindError    = "error"
	kindNeedAuth = "needauth"
)

// callResponse is the header of one reply. When Kind is kindOK the
// result value follows it on the stream; no value follows any other
// kind. For kindNeedAuth, Issuer and MinTag carry the challenge: the
// principal the caller must speak for and the minimum restriction set
// the delegation must allow (the SfNeedAuthorizationException of
// Figure 4, step l).
type callResponse struct {
	ID     int64
	Kind   string
	Err    string
	Issuer []byte
	MinTag []byte
}

// NeedAuthorization is the client-visible form of the server's
// challenge.
type NeedAuthorization struct {
	Issuer principal.Principal
	MinTag tag.Tag
}

func (e *NeedAuthorization) Error() string {
	return fmt.Sprintf("rmi: need authorization: speak for %s regarding %s", e.Issuer, e.MinTag)
}

// encodeChallenge serializes the challenge fields of a response.
func encodeChallenge(issuer principal.Principal, minTag tag.Tag) (issuerB, tagB []byte) {
	return issuer.Sexp().Transport(), minTag.Sexp().Transport()
}

// decodeChallenge parses the challenge fields.
func decodeChallenge(issuerB, tagB []byte) (principal.Principal, tag.Tag, error) {
	ie, err := sexp.ParseOne(issuerB)
	if err != nil {
		return nil, tag.Tag{}, fmt.Errorf("rmi: challenge issuer: %w", err)
	}
	iss, err := principal.FromSexp(ie)
	if err != nil {
		return nil, tag.Tag{}, fmt.Errorf("rmi: challenge issuer: %w", err)
	}
	te, err := sexp.ParseOne(tagB)
	if err != nil {
		return nil, tag.Tag{}, fmt.Errorf("rmi: challenge tag: %w", err)
	}
	mt, err := tag.FromSexp(te)
	if err != nil {
		return nil, tag.Tag{}, fmt.Errorf("rmi: challenge tag: %w", err)
	}
	return iss, mt, nil
}

// MethodTag builds the default request tag for an invocation:
// (tag (rmi (object "name") (method "Method"))). Server objects may
// install richer TagFuncs that inspect arguments.
func MethodTag(object, method string) tag.Tag {
	return tag.ListOf(
		tag.Literal("rmi"),
		tag.ListOf(tag.Literal("object"), tag.Literal(object)),
		tag.ListOf(tag.Literal("method"), tag.Literal(method)),
	)
}

// ObjectTag builds the grant tag covering every method of an object:
// (tag (rmi (object "name"))). Shorter lists are more permissive, so
// this covers every MethodTag of the object.
func ObjectTag(object string) tag.Tag {
	return tag.ListOf(
		tag.Literal("rmi"),
		tag.ListOf(tag.Literal("object"), tag.Literal(object)),
	)
}

// proofRecipientObject is the reserved object name the client submits
// proofs to (the proofRecipient of Figure 4, steps m-n).
const proofRecipientObject = "_proofRecipient"

// submitArgs is the argument to the proof recipient.
type submitArgs struct {
	Proof []byte // transport-encoded proof
}

// submitReply acknowledges a stored proof.
type submitReply struct {
	Stored bool
}
