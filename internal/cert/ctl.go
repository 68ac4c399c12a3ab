package cert

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/principal"
	"repro/internal/sexp"
	"repro/internal/sfkey"
	"repro/internal/tag"
)

// Control-plane tag conventions: the same speaks-for machinery that
// authorizes data-plane requests guards the management surface. A
// directory (or any daemon) is configured with an OPERATOR principal;
// a caller may mutate the daemon's state only by proving that its
// request speaks for that operator regarding the operation's control
// tag:
//
//	(tag (sf-ctl admin))    admin endpoints: CRL install, reload
//	(tag (sf-ctl publish))  publish and remove
//
// An operator mints credentials exactly like any other delegation —
// cert.Delegate(operatorKey, adminKey, operator, CtlTag(CtlAdmin), v)
// — and revokes them with an ordinary CRL, so a compromised admin
// credential is locked out through the very pipeline it administers.
// CtlAllTag covers both operations; directory daemons use it for the
// credential backing the removal repairs their anti-entropy pushes to
// peers (a repair is a remove at the peer).
const (
	// CtlAdmin names the admin operation class (CRL install/reload).
	CtlAdmin = "admin"
	// CtlPublish names the publish operation class (publish/remove).
	CtlPublish = "publish"
	// ctlLabel is the distinguishing first element of control tags; no
	// data-plane tag convention uses it, so a control credential can
	// never be replayed against a data-plane resource or vice versa.
	ctlLabel = "sf-ctl"
)

// CtlTag returns the control tag for one operation class:
// (tag (sf-ctl <op>)).
func CtlTag(op string) tag.Tag {
	return tag.ListOf(tag.Literal(ctlLabel), tag.Literal(op))
}

// CtlAllTag returns the control tag covering every operation class:
// (tag (sf-ctl (* set admin publish))).
func CtlAllTag() tag.Tag {
	return tag.ListOf(tag.Literal(ctlLabel), tag.SetOf(tag.Literal(CtlAdmin), tag.Literal(CtlPublish)))
}

// DelegateCtl mints an operator credential: priv (the operator key,
// or any key already speaking for the operator) delegates control
// authority over the listed operation classes to the recipient for
// ttl. It is sugar over Delegate with the control-tag conventions
// applied; revoke it like any certificate (its Hash on a CRL).
func DelegateCtl(priv *sfkey.PrivateKey, to principal.Principal, ttl time.Duration, ops ...string) (*Cert, error) {
	var t tag.Tag
	switch len(ops) {
	case 0:
		t = CtlAllTag()
	case 1:
		t = CtlTag(ops[0])
	default:
		elems := make([]tag.Tag, len(ops))
		for i, op := range ops {
			elems[i] = tag.Literal(op)
		}
		t = tag.ListOf(tag.Literal(ctlLabel), tag.SetOf(elems...))
	}
	v := core.Forever
	if ttl > 0 {
		v = core.Between(time.Now().Add(-time.Minute), time.Now().Add(ttl))
	}
	return Delegate(priv, to, principal.KeyOf(priv.Public()), t, v)
}

// LoadCertFile reads every certificate S-expression in the file —
// one per line or concatenated, like LoadCRLFile — and returns them
// in order. Daemons load their control-plane credential chains with
// it. Signatures are NOT verified here; the prover re-verifies every
// certificate before it authorizes anything.
func LoadCertFile(path string) ([]*Cert, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var certs []*Cert
	n := 0
	for {
		raw = bytes.TrimLeft(raw, " \t\r\n")
		if len(raw) == 0 {
			return certs, nil
		}
		e, used, err := sexp.Parse(raw)
		if err != nil {
			return nil, fmt.Errorf("cert: %s: cert %d: %w", path, n+1, err)
		}
		p, err := core.ProofFromSexp(e)
		if err != nil {
			return nil, fmt.Errorf("cert: %s: cert %d: %w", path, n+1, err)
		}
		c, ok := p.(*Cert)
		if !ok {
			return nil, fmt.Errorf("cert: %s: cert %d is %T, not a signed certificate", path, n+1, p)
		}
		certs = append(certs, c)
		raw = raw[used:]
		n++
	}
}
