// Package core implements the paper's primary contribution: a compact
// logic of authority whose statements are restricted delegations
// ("B speaks for A regarding T", written B =T=> A) and whose proofs
// are structured, self-describing, independently verifiable objects
// (paper sections 3 and 4).
//
// A proof is not a bearer capability: it is a verifiable fact, and
// knowledge of a proof bestows no authority on an adversary. Authority
// flows only from controlling the principal at the subject end of the
// chain (a private key, a channel endpoint, a MAC secret).
//
// # The verified-proof cache
//
// Because proofs are self-describing and independently verifiable,
// their verdicts can be memoized: ProofCache maps a proof's canonical
// hash to a positive verdict. A verifier names its cache explicitly
// (admit.Pipeline.Cache, VerifyContext.Cache); those that name none
// fall back to one process-wide instance (SharedProofCache).
// Soundness rests on four invariants, documented in detail on
// ProofCache and enforced by Lookup/Store:
//
//   - only positive verdicts are cached (a failure may be local to
//     one verifier and must not condemn the proof for others);
//   - only Portable proofs are cached (assumption leaves and
//     revalidation-demanding certificates keep their subtree out);
//   - every entry dies with the revocation epoch (bumped by
//     cert.RevocationStore on every CRL) and is scoped to the
//     revocation view it was checked under;
//   - every entry is unusable outside its conclusion's validity
//     window.
package core

import (
	"fmt"
	"time"

	"repro/internal/principal"
	"repro/internal/sexp"
	"repro/internal/tag"
)

// Validity is a statement's validity interval. Zero times mean
// unbounded at that end. Expiration is part of the restriction of a
// delegation (section 4.3), so each proof need be verified only once:
// matching a request against the conclusion automatically disregards
// expired statements.
type Validity struct {
	NotBefore time.Time
	NotAfter  time.Time
}

// Forever is the unbounded validity interval.
var Forever = Validity{}

// Until returns a validity from now-unbounded to the given expiry.
func Until(t time.Time) Validity { return Validity{NotAfter: t} }

// Between returns a bounded validity window.
func Between(from, to time.Time) Validity {
	return Validity{NotBefore: from, NotAfter: to}
}

// Contains reports whether t lies inside the window.
func (v Validity) Contains(t time.Time) bool {
	if !v.NotBefore.IsZero() && t.Before(v.NotBefore) {
		return false
	}
	if !v.NotAfter.IsZero() && t.After(v.NotAfter) {
		return false
	}
	return true
}

// Intersect returns the overlap of two windows and whether it is
// nonempty.
func (v Validity) Intersect(o Validity) (Validity, bool) {
	out := v
	if out.NotBefore.IsZero() || (!o.NotBefore.IsZero() && o.NotBefore.After(out.NotBefore)) {
		out.NotBefore = o.NotBefore
	}
	if out.NotAfter.IsZero() || (!o.NotAfter.IsZero() && o.NotAfter.Before(out.NotAfter)) {
		out.NotAfter = o.NotAfter
	}
	if !out.NotBefore.IsZero() && !out.NotAfter.IsZero() && out.NotAfter.Before(out.NotBefore) {
		return Validity{}, false
	}
	return out, true
}

// Covers reports whether v is at least as wide as o.
func (v Validity) Covers(o Validity) bool {
	i, ok := v.Intersect(o)
	return ok && i == o
}

// IsUnbounded reports whether the window has no limits.
func (v Validity) IsUnbounded() bool {
	return v.NotBefore.IsZero() && v.NotAfter.IsZero()
}

// Sexp encodes the window; nil for the unbounded window.
func (v Validity) Sexp() sexp.Sexp {
	if v.IsUnbounded() {
		return nil
	}
	kids := []sexp.Sexp{sexp.String("valid")}
	if !v.NotBefore.IsZero() {
		kids = append(kids, sexp.List(sexp.String("not-before"),
			sexp.String(v.NotBefore.UTC().Format(time.RFC3339Nano))))
	}
	if !v.NotAfter.IsZero() {
		kids = append(kids, sexp.List(sexp.String("not-after"),
			sexp.String(v.NotAfter.UTC().Format(time.RFC3339Nano))))
	}
	return sexp.List(kids...)
}

// ValidityFromSexp decodes a (valid ...) form; nil decodes to the
// unbounded window.
func ValidityFromSexp(e sexp.Sexp) (Validity, error) {
	var v Validity
	if e == nil {
		return v, nil
	}
	if e.Tag() != "valid" {
		return v, fmt.Errorf("core: not a (valid ...) form: %q", e.Tag())
	}
	for i := 1; i < e.Len(); i++ {
		c := e.Nth(i)
		if c.Len() != 2 || !c.Nth(1).IsAtom() {
			return v, fmt.Errorf("core: malformed validity bound")
		}
		t, err := time.Parse(time.RFC3339Nano, c.Nth(1).Text())
		if err != nil {
			return v, fmt.Errorf("core: bad validity time: %w", err)
		}
		switch c.Tag() {
		case "not-before":
			v.NotBefore = t
		case "not-after":
			v.NotAfter = t
		default:
			return v, fmt.Errorf("core: unknown validity bound %q", c.Tag())
		}
	}
	return v, nil
}

func (v Validity) String() string {
	if v.IsUnbounded() {
		return "[always]"
	}
	nb, na := "-inf", "+inf"
	if !v.NotBefore.IsZero() {
		nb = v.NotBefore.UTC().Format(time.RFC3339)
	}
	if !v.NotAfter.IsZero() {
		na = v.NotAfter.UTC().Format(time.RFC3339)
	}
	return "[" + nb + ", " + na + "]"
}

// SpeaksFor is the primary statement form: Subject =Tag=> Issuer
// within Validity. It means the issuer agrees with anything in the
// tag's set that the subject says; speaks-for captures delegation,
// regarding captures restriction.
type SpeaksFor struct {
	Subject  principal.Principal
	Issuer   principal.Principal
	Tag      tag.Tag
	Validity Validity
}

// Sexp encodes the statement.
func (s SpeaksFor) Sexp() sexp.Sexp {
	kids := []sexp.Sexp{
		sexp.String("speaks-for"),
		sexp.List(sexp.String("subject"), s.Subject.Sexp()),
		sexp.List(sexp.String("issuer"), s.Issuer.Sexp()),
		s.Tag.Sexp(),
	}
	if v := s.Validity.Sexp(); v != nil {
		kids = append(kids, v)
	}
	return sexp.List(kids...)
}

// SpeaksForFromSexp decodes a (speaks-for ...) form.
func SpeaksForFromSexp(e sexp.Sexp) (SpeaksFor, error) {
	var s SpeaksFor
	if e == nil || e.Tag() != "speaks-for" {
		return s, fmt.Errorf("core: not a speaks-for statement")
	}
	sub := e.Child("subject")
	iss := e.Child("issuer")
	tg := e.Child("tag")
	if sub == nil || iss == nil || tg == nil || sub.Len() != 2 || iss.Len() != 2 {
		return s, fmt.Errorf("core: speaks-for missing subject/issuer/tag")
	}
	var err error
	if s.Subject, err = principal.FromSexp(sub.Nth(1)); err != nil {
		return s, fmt.Errorf("core: subject: %w", err)
	}
	if s.Issuer, err = principal.FromSexp(iss.Nth(1)); err != nil {
		return s, fmt.Errorf("core: issuer: %w", err)
	}
	if s.Tag, err = tag.FromSexp(tg); err != nil {
		return s, fmt.Errorf("core: tag: %w", err)
	}
	if s.Validity, err = ValidityFromSexp(e.Child("valid")); err != nil {
		return s, err
	}
	return s, nil
}

// Equal reports structural equality of statements.
func (s SpeaksFor) Equal(o SpeaksFor) bool {
	return principal.Equal(s.Subject, o.Subject) &&
		principal.Equal(s.Issuer, o.Issuer) &&
		s.Tag.Equal(o.Tag) &&
		s.Validity == o.Validity
}

// Key returns a canonical map key for the statement.
func (s SpeaksFor) Key() string { return s.Sexp().Key() }

func (s SpeaksFor) String() string {
	return fmt.Sprintf("%s =%s=> %s %s", s.Subject, s.Tag, s.Issuer, s.Validity)
}
