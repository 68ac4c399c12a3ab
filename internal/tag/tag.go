// Package tag implements SPKI authorization tags: the restriction
// language of Snowflake delegations (paper section 4.1). A tag denotes
// an infinitely refinable set of requests. The package provides the
// complete intersection and coverage algebra (the paper replaced
// Morcos' minimal implementation with a complete one; this is the Go
// equivalent, following RFC 2693 and Howell's thesis chapter 6).
//
// Tag expression grammar (inside "(tag ...)"):
//
//	texpr   = atom                  ; a literal byte string
//	        | "(*)"                 ; the set of all requests
//	        | "(* set" texpr* ")"   ; union
//	        | "(* prefix" atom ")"  ; byte strings with a prefix
//	        | "(* range" ord [lop low [hop high]] ")"
//	        | "(" texpr* ")"        ; a list; shorter lists are more
//	                                ; permissive (missing trailing
//	                                ; elements read as (*))
//
// Orderings for ranges: alpha, binary (bytewise), numeric (decimal).
package tag

import (
	"fmt"
	"math/big"

	"repro/internal/sexp"
)

// Tag is an immutable authorization tag. The zero value is invalid;
// use All, FromSexp, Parse, or the constructors.
type Tag struct {
	expr sexp.Sexp // the texpr, without the (tag ...) wrapper
}

// All returns the tag (*) that permits every request.
func All() Tag {
	return Tag{expr: starExpr()}
}

func starExpr() sexp.Sexp {
	return sexp.List(sexp.String("*"))
}

// Literal returns a tag matching exactly the given byte-string atom.
func Literal(s string) Tag {
	return Tag{expr: sexp.String(s)}
}

// ListOf returns a list tag with the given element tags.
func ListOf(elems ...Tag) Tag {
	kids := make([]sexp.Sexp, len(elems))
	for i, e := range elems {
		kids[i] = e.expr
	}
	return Tag{expr: sexp.List(kids...)}
}

// SetOf returns the union of the given tags.
func SetOf(elems ...Tag) Tag {
	kids := make([]sexp.Sexp, 0, len(elems)+2)
	kids = append(kids, sexp.String("*"), sexp.String("set"))
	for _, e := range elems {
		kids = append(kids, e.expr)
	}
	return Tag{expr: sexp.List(kids...)}
}

// Prefix returns a tag matching all byte strings beginning with p.
func Prefix(p string) Tag {
	return Tag{expr: sexp.List(sexp.String("*"), sexp.String("prefix"), sexp.String(p))}
}

// Ordering names for Range tags.
const (
	OrdAlpha   = "alpha"
	OrdBinary  = "binary"
	OrdNumeric = "numeric"
)

// Bound operators for Range tags.
const (
	BoundGE = "ge" // >= low
	BoundGT = "g"  // > low
	BoundLE = "le" // <= high
	BoundLT = "l"  // < high
)

// Range returns a range tag over the given ordering. Either bound may
// be omitted by passing an empty op.
func Range(ordering, lowOp, low, highOp, high string) Tag {
	kids := []sexp.Sexp{sexp.String("*"), sexp.String("range"), sexp.String(ordering)}
	if lowOp != "" {
		kids = append(kids, sexp.String(lowOp), sexp.String(low))
	}
	if highOp != "" {
		kids = append(kids, sexp.String(highOp), sexp.String(high))
	}
	return Tag{expr: sexp.List(kids...)}
}

// FromSexp interprets e as a tag expression. If e is a "(tag ...)"
// wrapper, the inner expression is used. The expression is validated
// structurally.
func FromSexp(e sexp.Sexp) (Tag, error) {
	if e == nil {
		return Tag{}, fmt.Errorf("tag: nil expression")
	}
	if e.IsList() && e.Tag() == "tag" {
		if e.Len() != 2 {
			return Tag{}, fmt.Errorf("tag: (tag ...) wrapper must have one body, has %d", e.Len()-1)
		}
		e = e.Nth(1)
	}
	if err := validate(e); err != nil {
		return Tag{}, err
	}
	return Tag{expr: e.Copy()}, nil
}

// Parse parses a tag from its textual (advanced or canonical)
// encoding, with or without the (tag ...) wrapper.
func Parse(s string) (Tag, error) {
	e, err := sexp.ParseOne([]byte(s))
	if err != nil {
		return Tag{}, err
	}
	return FromSexp(e)
}

// MustParse is Parse, panicking on error. For tests and literals.
func MustParse(s string) Tag {
	t, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return t
}

// validate checks the structural well-formedness of a tag expression.
func validate(e sexp.Sexp) error {
	if e == nil {
		return fmt.Errorf("tag: nil subexpression")
	}
	if e.IsAtom() {
		return nil
	}
	if isStarForm(e) {
		switch kind := starKind(e); kind {
		case "all":
			return nil
		case "set":
			for i := 2; i < e.Len(); i++ {
				if err := validate(e.Nth(i)); err != nil {
					return err
				}
			}
			return nil
		case "prefix":
			if e.Len() != 3 || !e.Nth(2).IsAtom() {
				return fmt.Errorf("tag: malformed (* prefix ...)")
			}
			return nil
		case "range":
			_, err := parseRange(e)
			return err
		default:
			return fmt.Errorf("tag: unknown star form %q", kind)
		}
	}
	for i := 0; i < e.Len(); i++ {
		if err := validate(e.Nth(i)); err != nil {
			return err
		}
	}
	return nil
}

// isStarForm reports whether e is a (* ...) special form.
func isStarForm(e sexp.Sexp) bool {
	if !e.IsList() || e.Len() < 1 {
		return false
	}
	n := e.Nth(0)
	// string(Bytes()) in a comparison compiles without allocating.
	return n.IsAtom() && string(n.Bytes()) == "*"
}

// starKind returns "all", "set", "prefix", or "range".
func starKind(e sexp.Sexp) string {
	if e.Len() == 1 {
		return "all"
	}
	switch n := e.Nth(1); {
	case string(n.Bytes()) == "set":
		return "set"
	case string(n.Bytes()) == "prefix":
		return "prefix"
	case string(n.Bytes()) == "range":
		return "range"
	}
	return e.Nth(1).Text()
}

// Sexp returns the tag body wrapped as "(tag <texpr>)". The body is
// shared, not copied: tag expressions are immutable once built, and
// nothing in the system mutates expressions it receives.
func (t Tag) Sexp() sexp.Sexp {
	return sexp.List(sexp.String("tag"), t.expr)
}

// Body returns a copy of the bare tag expression.
func (t Tag) Body() sexp.Sexp { return t.expr.Copy() }

// Valid reports whether t was properly constructed.
func (t Tag) Valid() bool { return t.expr != nil }

// IsAll reports whether t is exactly (*).
func (t Tag) IsAll() bool {
	return t.expr != nil && isStarForm(t.expr) && starKind(t.expr) == "all"
}

// Equal reports structural equality of two tags.
func (t Tag) Equal(u Tag) bool { return sexp.Equal(t.expr, u.expr) }

// Key returns a canonical map key for the tag.
func (t Tag) Key() string { return t.expr.Key() }

// String renders the tag in advanced form with the (tag ...) wrapper.
func (t Tag) String() string {
	if t.expr == nil {
		return "(tag <invalid>)"
	}
	return t.Sexp().String()
}

// rangeSpec is a decoded (* range ...) expression.
type rangeSpec struct {
	ordering        string
	hasLow, hasHigh bool
	lowInc, highInc bool // inclusive bounds
	low, high       string
}

func parseRange(e sexp.Sexp) (rangeSpec, error) {
	var r rangeSpec
	if e.Len() < 3 {
		return r, fmt.Errorf("tag: malformed (* range ...)")
	}
	r.ordering = e.Nth(2).Text()
	switch r.ordering {
	case OrdAlpha, OrdBinary, OrdNumeric, "time", "date":
	default:
		return r, fmt.Errorf("tag: unknown range ordering %q", r.ordering)
	}
	i := 3
	if i < e.Len() {
		op := e.Nth(i).Text()
		if op == BoundGE || op == BoundGT {
			if i+1 >= e.Len() || !e.Nth(i+1).IsAtom() {
				return r, fmt.Errorf("tag: range lower bound missing value")
			}
			r.hasLow, r.lowInc, r.low = true, op == BoundGE, e.Nth(i+1).Text()
			i += 2
		}
	}
	if i < e.Len() {
		op := e.Nth(i).Text()
		if op != BoundLE && op != BoundLT {
			return r, fmt.Errorf("tag: bad range bound op %q", op)
		}
		if i+1 >= e.Len() || !e.Nth(i+1).IsAtom() {
			return r, fmt.Errorf("tag: range upper bound missing value")
		}
		r.hasHigh, r.highInc, r.high = true, op == BoundLE, e.Nth(i+1).Text()
		i += 2
	}
	if i != e.Len() {
		return r, fmt.Errorf("tag: trailing junk in (* range ...)")
	}
	if r.ordering == OrdNumeric {
		if r.hasLow {
			if _, ok := new(big.Rat).SetString(r.low); !ok {
				return r, fmt.Errorf("tag: bad numeric bound %q", r.low)
			}
		}
		if r.hasHigh {
			if _, ok := new(big.Rat).SetString(r.high); !ok {
				return r, fmt.Errorf("tag: bad numeric bound %q", r.high)
			}
		}
	}
	return r, nil
}

func (r rangeSpec) sexp() sexp.Sexp {
	kids := []sexp.Sexp{sexp.String("*"), sexp.String("range"), sexp.String(r.ordering)}
	if r.hasLow {
		op := BoundGT
		if r.lowInc {
			op = BoundGE
		}
		kids = append(kids, sexp.String(op), sexp.String(r.low))
	}
	if r.hasHigh {
		op := BoundLT
		if r.highInc {
			op = BoundLE
		}
		kids = append(kids, sexp.String(op), sexp.String(r.high))
	}
	return sexp.List(kids...)
}

// compare compares two values under the range's ordering; returns
// -1, 0, +1. Numeric parses decimals; alpha/binary/time/date compare
// bytewise.
func (r rangeSpec) compare(a, b string) int {
	if r.ordering == OrdNumeric {
		x, okx := new(big.Rat).SetString(a)
		y, oky := new(big.Rat).SetString(b)
		if okx && oky {
			return x.Cmp(y)
		}
		// Non-numeric operands sort bytewise as a fallback.
	}
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// contains reports whether value v lies within the range.
func (r rangeSpec) contains(v string) bool {
	if r.ordering == OrdNumeric {
		if _, ok := new(big.Rat).SetString(v); !ok {
			return false
		}
	}
	if r.hasLow {
		c := r.compare(v, r.low)
		if c < 0 || (c == 0 && !r.lowInc) {
			return false
		}
	}
	if r.hasHigh {
		c := r.compare(v, r.high)
		if c > 0 || (c == 0 && !r.highInc) {
			return false
		}
	}
	return true
}
